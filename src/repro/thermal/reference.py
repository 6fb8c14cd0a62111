"""Independent numerical oracle for the analytic thermal engine.

The paper validates its schedules against HotSpot-5.02 traces.  HotSpot is
a closed C tool; its role here is played by a general-purpose stiff ODE
integrator (`scipy.integrate.solve_ivp`, LSODA) driven by the *same*
``(C, G, P)`` data but none of the eigendecomposition machinery.  Tests
cross-check the closed-form engine against this oracle on random
schedules; algorithm outputs are re-verified with it in the integration
suite.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from repro.errors import ThermalModelError
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.model import ThermalModel
from repro.thermal.transient import TraceResult
from repro.util.validation import as_1d_float

__all__ = ["reference_simulate", "reference_peak"]


def reference_simulate(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    theta0: np.ndarray | None = None,
    periods: int = 1,
    samples_per_interval: int = 16,
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> TraceResult:
    """Integrate ``C dtheta/dt = -G_eff theta + Psi(v(t))`` numerically.

    Interval boundaries are respected exactly (one `solve_ivp` call per
    state interval) so the piecewise-constant forcing never confuses the
    step controller.
    """
    if periods < 1:
        raise ThermalModelError(f"periods must be >= 1, got {periods}")
    if theta0 is None:
        theta0 = np.zeros(model.n_nodes)
    theta = as_1d_float(theta0, "theta0", model.n_nodes).copy()

    inv_c = 1.0 / model.c_diag
    g_eff = model.g_eff

    all_times: list[np.ndarray] = []
    all_temps: list[np.ndarray] = []
    t_base = 0.0
    rows = schedule.interval_rows()
    for _ in range(periods):
        for length, volts in rows:
            psi = model.injection(volts)

            def rhs(_t, y, _psi=psi):
                return inv_c * (_psi - g_eff @ y)

            local = np.linspace(0.0, length, max(samples_per_interval, 2))
            sol = solve_ivp(
                rhs,
                (0.0, length),
                theta,
                method="LSODA",
                t_eval=local,
                rtol=rtol,
                atol=atol,
            )
            if not sol.success:  # pragma: no cover - defensive
                raise ThermalModelError(f"reference integrator failed: {sol.message}")
            all_times.append(t_base + sol.t)
            all_temps.append(sol.y.T)
            theta = sol.y[:, -1].copy()
            t_base += length

    return TraceResult(
        times=np.concatenate(all_times),
        temperatures=np.vstack(all_temps),
        end_temperature=theta,
    )


def reference_peak(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    settle_periods: int | None = None,
    samples_per_interval: int = 64,
) -> float:
    """Stable-status peak core temperature, by brute-force settling.

    Repeats the schedule until transients die out (several dominant time
    constants), then samples one more period densely and returns the
    maximum core temperature.  Slow by design — this is the oracle.
    """
    if settle_periods is None:
        settle = 8.0 * model.slowest_time_constant
        settle_periods = max(3, int(np.ceil(settle / schedule.period)))
    # Settle cheaply with the analytic engine start... no: stay independent.
    theta = np.zeros(model.n_nodes)
    for _ in range(settle_periods):
        trace = reference_simulate(
            model, schedule, theta0=theta, periods=1, samples_per_interval=2
        )
        theta = trace.end_temperature
    final = reference_simulate(
        model,
        schedule,
        theta0=theta,
        periods=1,
        samples_per_interval=samples_per_interval,
    )
    cores = model.network.core_nodes
    return float(final.temperatures[:, cores].max())
