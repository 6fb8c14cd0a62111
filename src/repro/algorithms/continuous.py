"""The ideal continuous relaxation (section V's starting point).

Following Hanumaiah et al. [21], assume every core's stable-state
temperature sits exactly at ``T_max``.  Pinning the steady state of
eq. (2) at ``[T_max]_{Nx1}`` and solving for the implied heat injection
gives each core's power budget, and inverting ``psi`` gives the ideal
continuous voltage:

``v_i = psi^{-1}( q_i )``  with  ``q = (G - E_beta)[cores,:] theta*``.

When a budget falls outside the supported voltage range the core clamps
to the range end; clamped cores then no longer sit at ``T_max``, freeing
thermal headroom the remaining cores can absorb — we iterate the pinned
solve on the shrinking free set until no new clamps appear (at most N
rounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import ThermalEngine, as_platform
from repro.errors import SolverError
from repro.platform import Platform
from repro.tolerances import VOLTAGE_ATOL, within_threshold
from repro.util.linalg import solve_linear

__all__ = ["ContinuousAssignment", "continuous_assignment"]


@dataclass(frozen=True)
class ContinuousAssignment:
    """The ideal continuous operating point.

    Attributes
    ----------
    voltages:
        ``(n_cores,)`` ideal per-core supply voltages (clamped to the
        supported range).
    core_theta:
        ``(n_cores,)`` resulting steady-state core temperatures above
        ambient — ``theta_max`` for unclamped cores, lower for clamped
        ones.
    clamped:
        Boolean mask of cores whose budget hit the voltage range.
    throughput:
        Chip-wide throughput of this operating point (mean voltage).
    """

    voltages: np.ndarray
    core_theta: np.ndarray
    clamped: np.ndarray
    throughput: float


def continuous_assignment(
    platform: Platform | ThermalEngine,
    active_mask: np.ndarray | None = None,
) -> ContinuousAssignment:
    """Compute the ideal continuous per-core voltages for the platform.

    Parameters
    ----------
    active_mask:
        Optional boolean mask of cores allowed to run; masked-out cores
        are power-gated (v = 0) — the dark-silicon case.  Default: all
        cores active.

    Raises
    ------
    SolverError
        If the clamping iteration fails to settle within N rounds
        (cannot happen for monotone networks; defensive), or the platform
        is infeasible even at the minimum voltages.
    """
    platform = as_platform(platform)
    model = platform.model
    power = model.power
    n = platform.n_cores
    theta_max = platform.theta_max
    core_nodes = model.network.core_nodes
    g = model.g_eff

    v_lo, v_hi = power.v_min, power.v_max
    fixed_v = np.full(n, np.nan)  # NaN = still free (pinned at theta_max)
    if active_mask is not None:
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_mask.shape != (n,):
            raise SolverError(
                f"active_mask must have shape ({n},), got {active_mask.shape}"
            )
        fixed_v[~active_mask] = 0.0  # power-gated from the start

    voltages: np.ndarray | None = None
    theta_cores: np.ndarray | None = None
    for _ in range(n + 1):
        free = np.isnan(fixed_v)
        if not free.any():
            voltages = fixed_v.copy()
            theta_cores = _steady_cores(model, voltages)
            break

        # Pin free cores at theta_max, hold clamped cores at their fixed
        # voltage, and solve for everything else.
        pinned_nodes = core_nodes[free]
        other_nodes = np.setdiff1d(np.arange(model.n_nodes), pinned_nodes)

        rhs = np.zeros(model.n_nodes)
        if (~free).any():
            # Full-length voltage vector (0 on free cores) so per-core
            # power coefficients line up with their cores; rows of pinned
            # cores are excluded from the solve, so their entries are inert.
            v_fixed_full = np.where(free, 0.0, fixed_v)
            rhs[core_nodes] = np.asarray(power.psi(v_fixed_full))

        g_oo = g[np.ix_(other_nodes, other_nodes)]
        g_op = g[np.ix_(other_nodes, pinned_nodes)]
        theta_other = solve_linear(
            g_oo, rhs[other_nodes] - g_op @ np.full(pinned_nodes.size, theta_max)
        )
        theta_full = np.empty(model.n_nodes)
        theta_full[pinned_nodes] = theta_max
        theta_full[other_nodes] = theta_other

        q_free = g[pinned_nodes, :] @ theta_full
        free_idx = np.where(free)[0]
        v_free = np.array(
            [
                power.psi_inverse(max(qi, 0.0), core=int(core))
                for core, qi in zip(free_idx, q_free)
            ]
        )

        newly_clamped = False
        for k, core in enumerate(free_idx):
            if v_free[k] > v_hi + VOLTAGE_ATOL:
                fixed_v[core] = v_hi
                newly_clamped = True
            elif v_free[k] < v_lo - VOLTAGE_ATOL:
                fixed_v[core] = v_lo
                newly_clamped = True
        if not newly_clamped:
            voltages = fixed_v.copy()
            voltages[free_idx] = v_free
            theta_cores = theta_full[core_nodes]
            break
    else:  # pragma: no cover - defensive
        raise SolverError("continuous relaxation failed to settle clamping")

    assert voltages is not None and theta_cores is not None

    # A core clamped at v_min whose ideal budget was below v_min injects
    # more heat than its share, pushing temperatures past theta_max even
    # though the pinned solve assumed otherwise.  Repair with a greedy
    # continuous reduction (the continuous analogue of the TPT loop):
    # repeatedly lower the voltage that cools the hottest core most per
    # unit of throughput until the constraint holds.
    if not within_threshold(theta_cores.max(), theta_max):
        floor_v = np.full(n, v_lo)
        if active_mask is not None:
            floor_v[~active_mask] = 0.0
        if not within_threshold(model.steady_state_cores(floor_v).max(), theta_max):
            raise SolverError(
                f"infeasible: even v_min on all active cores exceeds theta_max "
                f"({model.steady_state_cores(floor_v).max():.3f} > "
                f"{theta_max:.3f} K)"
            )
        voltages, theta_cores = _greedy_reduce(model, voltages, theta_max, v_lo)

    return ContinuousAssignment(
        voltages=voltages,
        core_theta=theta_cores,
        clamped=~np.isnan(fixed_v),
        throughput=float(np.mean(voltages)),
    )


def _greedy_reduce(
    model,
    voltages: np.ndarray,
    theta_max: float,
    v_lo: float,
    step: float = 2e-3,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower voltages greedily until the steady state respects theta_max.

    Sensitivities come from the thermal map's linearity: the hottest
    core's temperature drop per watt removed on core j is the (hot, j)
    entry of the steady-state response, and the watts per volt is
    ``psi'(v_j)`` — so each move picks ``argmax_j response[hot, j] *
    psi'(v_j)`` among cores above ``v_lo``.
    """
    power = model.power
    volts = voltages.copy()
    cores = model.network.core_nodes
    # Response of core temperatures to per-core unit injections.
    response = np.linalg.solve(model.g_eff, np.eye(model.n_nodes))[
        np.ix_(cores, cores)
    ]
    theta = model.steady_state_cores(volts)
    for _ in range(max_iter):
        if within_threshold(theta.max(), theta_max):
            return volts, theta
        hot = int(np.argmax(theta))
        movable = volts > v_lo + VOLTAGE_ATOL
        if not movable.any():  # pragma: no cover - guarded by the v_min check
            raise SolverError("greedy reduction exhausted all voltages")
        dpsi = power.alpha_lin + 3.0 * power.gamma * volts**2
        gain = response[hot, :] * dpsi
        gain[~movable] = -np.inf
        j = int(np.argmax(gain))
        volts[j] = max(v_lo, volts[j] - step)
        theta = model.steady_state_cores(volts)
    raise SolverError("greedy reduction did not converge")  # pragma: no cover


def _steady_cores(model, voltages: np.ndarray) -> np.ndarray:
    return model.steady_state_cores(voltages)
