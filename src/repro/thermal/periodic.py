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
from repro.thermal.matex import IntervalSolution, interval_solution
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
        t_infs = self.steady_states or (None,) * self.schedule.n_intervals
        return [
            interval_solution(
                model, self.boundary_temperatures[q], volts, length, t_inf=t_inf
            )
            for q, ((length, volts), t_inf) in enumerate(
                zip(self.schedule.interval_rows(), t_infs)
            )
        ]

    def boundary_peak(self, model: ThermalModel) -> float:
        """Highest *core* temperature among scheduling points."""
        cores = model.network.core_nodes
        return float(self.boundary_temperatures[:, cores].max())


def periodic_steady_state(
    model: ThermalModel,
    schedule: PeriodicSchedule,
) -> PeriodicSolution:
    """Solve the stable status fixed point of eq. (4).

    Cost: one closed-form propagation per interval to get the affine part,
    one dense ``expm`` product chain for ``K``, and one linear solve.
    Each interval's steady state is looked up once and kept on the
    solution for :meth:`PeriodicSolution.interval_solutions`.
    """
    n = model.n_nodes
    eigen = model.eigen
    rows = schedule.interval_rows()
    t_infs = tuple(model.steady_state(volts) for _, volts in rows)

    def propagate(theta: np.ndarray, length: float, t_inf: np.ndarray) -> np.ndarray:
        # ThermalModel.propagate with the steady state already in hand.
        return t_inf + eigen.apply_expm(length, theta - t_inf)

    # Affine part d: one period from theta(0) = 0.
    d = np.zeros(n)
    for (length, _), t_inf in zip(rows, t_infs):
        d = propagate(d, length, t_inf)

    # Monodromy matrix K = Phi_z ... Phi_1 (dense; n is small: 2N+1 nodes).
    k = np.eye(n)
    for length, _ in rows:
        k = eigen.expm(length) @ k

    theta0 = solve_linear(np.eye(n) - k, d)

    boundaries = np.empty((schedule.n_intervals + 1, n))
    boundaries[0] = theta0
    theta = theta0
    for q, ((length, _), t_inf) in enumerate(zip(rows, t_infs), start=1):
        theta = propagate(theta, length, t_inf)
        boundaries[q] = theta
    return PeriodicSolution(
        schedule=schedule, boundary_temperatures=boundaries, steady_states=t_infs
    )


def stable_trace(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    samples_per_interval: int = 16,
) -> TraceResult:
    """Dense one-period temperature trace in the stable status.

    This is the Fig. 4(b) artifact: the periodic steady-state waveform.
    """
    solution = periodic_steady_state(model, schedule)
    all_times: list[np.ndarray] = []
    all_temps: list[np.ndarray] = []
    t_base = 0.0
    for length, sol in zip(
        schedule.lengths.tolist(), solution.interval_solutions(model)
    ):
        local = np.linspace(0.0, length, max(samples_per_interval, 2))
        all_times.append(t_base + local)
        all_temps.append(sol.temperatures(local))
        t_base += length
    return TraceResult(
        times=np.concatenate(all_times),
        temperatures=np.vstack(all_temps),
        end_temperature=solution.end_temperature.copy(),
    )
