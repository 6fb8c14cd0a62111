"""Thermal stable status of periodic schedules (eq. (4)).

Running a periodic schedule long enough drives the temperature into the
*thermal stable status*: the state at the period start equals the state at
the period end.  Over one period,

``theta(t_p) = K theta(0) + d``,  ``K = Phi_z ... Phi_1``, ``Phi_q = expm(A l_q)``

and since all eigenvalues of ``A`` are negative, ``rho(K) < 1`` and the
fixed point ``theta_ss(0) = (I - K)^{-1} d`` exists and is unique.  We
compute ``d`` by propagating from zero (linearity: the affine part of one
period) and solve rather than invert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.matex import IntervalSolution, stacked_temperatures
from repro.thermal.model import ThermalModel
from repro.thermal.transient import TraceResult
from repro.util.linalg import solve_linear

__all__ = ["PeriodicSolution", "periodic_steady_state", "stable_trace"]


@dataclass(frozen=True)
class PeriodicSolution:
    """Stable-status description of a periodic schedule.

    Attributes
    ----------
    schedule:
        The analyzed schedule.
    boundary_temperatures:
        ``(z + 1, n_nodes)`` stable-status temperatures at every scheduling
        point ``t_0 = 0 .. t_z = t_p`` (first and last rows are equal by
        construction).
    steady_states:
        The node steady state of every interval's voltages, when the
        solver already looked them up (``None`` otherwise).
    """

    schedule: PeriodicSchedule
    boundary_temperatures: np.ndarray
    steady_states: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False, compare=False
    )
    #: ``(z, n_nodes)`` eigenbasis coordinates of ``theta(t_q) - t_inf_q``
    #: at every interval start, when the solver kept them.
    _coefficients: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def start_temperature(self) -> np.ndarray:
        """``theta_ss(0)`` — the stable state at the period start."""
        return self.boundary_temperatures[0]

    @property
    def end_temperature(self) -> np.ndarray:
        """``theta_ss(t_p)`` (equals the start by periodicity)."""
        return self.boundary_temperatures[-1]

    def interval_solutions(self, model: ThermalModel) -> list[IntervalSolution]:
        """Closed-form solutions for each interval in the stable status."""
        t_inf, modal = self.modal_stack(model)
        lam = model.eigen.eigenvalues
        return [
            IntervalSolution(t_inf=t_inf[q], modal=modal[q], lambdas=lam, length=length)
            for q, length in enumerate(self.schedule.lengths.tolist())
        ]

    def modal_stack(self, model: ThermalModel) -> tuple[np.ndarray, np.ndarray]:
        """``(t_inf, modal)`` of every interval, stacked.

        ``t_inf`` is ``(z, n_nodes)``, the steady states; ``modal`` is
        ``(z, n_nodes, n_nodes)``, the coefficients of
        ``theta_i(t) = t_inf[i] + sum_k modal[i, k] exp(lambda_k t)`` — the
        arrays :meth:`interval_solutions` hands out interval by interval.
        """
        eigen = model.eigen
        t_infs = self.steady_states or tuple(
            model.steady_state(volts)
            for volts in self.schedule.voltage_matrix.tolist()
        )
        coeffs = self._coefficients
        if coeffs is None:
            coeffs = np.array(
                [
                    eigen.w_inv @ (theta - t_inf)
                    for theta, t_inf in zip(self.boundary_temperatures, t_infs)
                ]
            )
        return np.array(t_infs), eigen.w[None, :, :] * coeffs[:, None, :]

    def grid(self, model: ThermalModel, samples: int) -> tuple[np.ndarray, np.ndarray]:
        """Every interval's temperatures on an even grid, in one stacked pass.

        Returns ``(times, temps)``: the ``(z, G)`` local sample instants
        ``np.linspace(0, l_q, G)`` with ``G = max(samples, 2)``, and the
        ``(z, G, n_nodes)`` stable-status node temperatures there.  Slice
        ``q`` equals ``interval_solutions(model)[q].temperatures(times[q])``
        bit for bit.
        """
        t_inf, modal = self.modal_stack(model)
        times = np.linspace(0.0, self.schedule.lengths, max(samples, 2), axis=1)
        temps = stacked_temperatures(t_inf, modal, model.eigen.eigenvalues, times)
        return times, temps


def periodic_steady_state(
    model: ThermalModel,
    schedule: PeriodicSchedule,
) -> PeriodicSolution:
    """Solve the stable status fixed point of eq. (4).

    Cost: one closed-form propagation per interval to get the affine part,
    one dense ``expm`` product chain for ``K``, and one linear solve.
    Each interval's decay factors ``exp(lambda l_q)`` are computed once
    and serve all three passes (counted as the 3z ``expm`` applications
    they stand for).  Each interval's steady state is looked up once and
    kept on the solution, with the eigenbasis coordinates of the boundary
    pass, for :meth:`PeriodicSolution.grid` and
    :meth:`PeriodicSolution.interval_solutions`.

    The solve stays :func:`~repro.util.linalg.solve_linear`: for
    symmetric ``I - K`` (common on two-core chips) it takes a symmetric
    factorization whose result differs in the last bits from a plain LU,
    and every committed result was computed through it.
    """
    n = model.n_nodes
    eigen = model.eigen
    lam, w, w_inv = eigen.eigenvalues, eigen.w, eigen.w_inv
    t_infs = tuple(model.steady_state_many(schedule.voltage_matrix))
    # expm(A l_q) = W diag(decays[q]) W^{-1}.
    decays = np.exp(schedule.lengths[:, None] * lam)
    eigen.expm_applications += 3 * schedule.n_intervals

    # Affine part d: one period from theta(0) = 0.
    d = np.zeros(n)
    for decay, t_inf in zip(decays, t_infs):
        d = t_inf + w @ (decay * (w_inv @ (d - t_inf)))

    # Monodromy matrix K = Phi_z ... Phi_1 (dense; n is small: 2N+1 nodes).
    k = np.eye(n)
    for decay in decays:
        k = (w * decay[None, :]) @ w_inv @ k

    theta0 = solve_linear(np.eye(n) - k, d)

    boundaries = np.empty((schedule.n_intervals + 1, n))
    coeffs = np.empty((schedule.n_intervals, n))
    boundaries[0] = theta0
    theta = theta0
    for q, (decay, t_inf) in enumerate(zip(decays, t_infs)):
        coeffs[q] = w_inv @ (theta - t_inf)
        theta = t_inf + w @ (decay * coeffs[q])
        boundaries[q + 1] = theta
    solution = PeriodicSolution(
        schedule=schedule, boundary_temperatures=boundaries, steady_states=t_infs
    )
    object.__setattr__(solution, "_coefficients", coeffs)
    return solution


def stable_trace(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    samples_per_interval: int = 16,
) -> TraceResult:
    """Dense one-period temperature trace in the stable status.

    This is the Fig. 4(b) artifact: the periodic steady-state waveform.
    """
    solution = periodic_steady_state(model, schedule)
    local, temps = solution.grid(model, samples_per_interval)
    return TraceResult(
        times=(schedule.boundaries[:-1, None] + local).ravel(),
        temperatures=temps.reshape(-1, model.n_nodes),
        end_temperature=solution.end_temperature.copy(),
    )
