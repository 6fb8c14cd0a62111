"""Thermal Safe Power (TSP) — the power-budget baseline the paper critiques.

Pagani et al. [9] replace the single chip-wide TDP with a per-core power
budget ``P_TSP(k)`` for each active-core count ``k``: the largest uniform
per-core power such that *any* placement of ``k`` active cores stays under
``T_max`` at steady state.  The paper's introduction argues (citing [9])
that even such temperature-aware *power* budgeting is pessimistic compared
to scheduling temperature directly — this module quantifies that claim on
our substrate (see ``experiments.tsp_comparison``).

Because the steady-state map is linear in per-core injections, the hottest
placement for a uniform budget maximizes the row-sum of the thermal
response over active subsets; we enumerate subsets exactly for the paper's
small chips and fall back to a greedy inner bound past an enumeration
budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.platform import Platform
from repro.tolerances import POWER_SLACK

__all__ = ["TSPResult", "thermal_safe_power", "tsp_throughput"]

#: Max subsets enumerated exactly before switching to the greedy bound.
ENUMERATION_BUDGET = 200_000


@dataclass(frozen=True)
class TSPResult:
    """TSP budget for one active-core count.

    Attributes
    ----------
    n_active:
        Number of simultaneously active cores the budget covers.
    power_per_core:
        The TSP budget in W of temperature-independent injection
        (``psi``; the leakage feedback is inside the thermal map).
    worst_set:
        The active-core placement that pins the budget (hottest).
    exact:
        Whether the worst set was found by exact enumeration.
    """

    n_active: int
    power_per_core: float
    worst_set: tuple[int, ...]
    exact: bool


def _response_matrix(platform: Platform) -> np.ndarray:
    model = platform.model
    cores = model.network.core_nodes
    response = np.linalg.solve(model.g_eff, np.eye(model.n_nodes))
    return response[np.ix_(cores, cores)]


def thermal_safe_power(platform: Platform, n_active: int) -> TSPResult:
    """Compute the TSP per-core budget for ``n_active`` cores.

    With uniform injection ``P`` on an active set ``S``, core ``i`` reaches
    ``theta_i = P * sum_{j in S} R[i, j]``; the binding quantity is
    ``max_S max_{i in S} sum_{j in S} R[i, j]``, and
    ``P_TSP = theta_max / (that maximum)``.
    """
    n = platform.n_cores
    if not (1 <= n_active <= n):
        raise SolverError(f"n_active must be in [1, {n}], got {n_active}")
    r = _response_matrix(platform)
    theta_max = platform.theta_max

    from math import comb

    exact = comb(n, n_active) <= ENUMERATION_BUDGET
    best_val, best_set = -np.inf, None
    if exact:
        for subset in itertools.combinations(range(n), n_active):
            idx = np.asarray(subset)
            val = float(r[np.ix_(idx, idx)].sum(axis=1).max())
            if val > best_val:
                best_val, best_set = val, subset
    else:
        # Greedy inner bound: grow the set around the thermally worst core.
        order = np.argsort(-np.diag(r))
        current = [int(order[0])]
        while len(current) < n_active:
            gains = []
            for cand in range(n):
                if cand in current:
                    continue
                idx = np.asarray(current + [cand])
                gains.append(
                    (float(r[np.ix_(idx, idx)].sum(axis=1).max()), cand)
                )
            val, cand = max(gains)
            current.append(cand)
            best_val = val
        best_set = tuple(sorted(current))

    return TSPResult(
        n_active=n_active,
        power_per_core=float(theta_max / best_val),
        worst_set=tuple(best_set),
        exact=exact,
    )


def tsp_throughput(platform: Platform, n_active: int | None = None) -> float:
    """Chip throughput achievable under TSP power budgeting.

    Every active core converts its TSP budget to the fastest discrete
    mode whose injection fits (a budget-respecting governor); idle cores
    contribute zero.  Returns the chip-wide eq.-(5) throughput of the best
    active-core count when ``n_active`` is None.
    """
    n = platform.n_cores
    counts = range(1, n + 1) if n_active is None else [n_active]
    best = 0.0
    for k in counts:
        budget = thermal_safe_power(platform, k).power_per_core
        # Fastest ladder level within the injection budget.
        speed = 0.0
        for level in platform.ladder.levels:
            psi_vals = np.asarray(
                platform.model.power.psi(np.full(n, float(level)))
            )
            if float(psi_vals.max()) <= budget + POWER_SLACK:
                speed = level
        best = max(best, k * speed / n)
    return best
