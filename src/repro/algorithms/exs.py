"""EXS — exhaustive single-mode search (Algorithm 1).

Every core runs one constant discrete mode; enumerate all ``L^N``
assignments, keep the feasible one (steady state under ``T_max``) with the
highest total speed.  Two searches over that constant lattice:

* :func:`exs` — the paper's Algorithm 1, vectorized: each chunk of
  ``BATCH`` assignments is built directly as a voltage matrix from a
  mixed-radix index range (``itertools.product`` order), and its steady
  states come from one Cholesky solve (the factorization is shared), so
  even the 9-core x 5-level grid (~2M assignments) is tractable.
  Complexity is still exponential — this is the Table V cost story.
* :func:`pruned_lattice_search` — the exact pruned search, exploiting
  monotonicity (raising any core's voltage raises every temperature)
  plus a throughput bound.  It expands the search tree one core at a
  time and prices each whole frontier in batched solves, then replays
  the depth-first acceptance order, so it returns exactly what the
  recursive depth-first search returns.  :func:`exs_pruned` (the
  ablation benchmark's EXS) and the AO/PCO constant floor guard
  (:func:`repro.algorithms.ao.best_constant_above`) both run on it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.engine import EngineStats, ThermalEngine, engine_entrypoint
from repro.errors import InfeasibleError, SolverError
from repro.platform import Platform
from repro.schedule.builders import constant_schedule

__all__ = ["exs", "exs_pruned", "pruned_lattice_search"]

#: Assignments evaluated per vectorized batch (bounds peak memory).
BATCH = 65536


def _result(voltages: np.ndarray, peak: float, elapsed: float,
            name: str, evaluations: int,
            stats: EngineStats | None = None) -> SchedulerResult:
    return SchedulerResult(
        name=name,
        schedule=constant_schedule(voltages, period=0.02),
        throughput=float(np.mean(voltages)),
        peak_theta=float(peak),
        feasible=True,
        runtime_s=elapsed,
        details={"evaluations": evaluations},
        stats=stats,
    )


def _lattice_chunks(levels: np.ndarray, n: int):
    """Yield the ``(rows, n)`` voltage matrices of all ``L^n`` assignments.

    Row ``i`` is assignment ``i`` of ``itertools.product(range(L),
    repeat=n)`` (C order: the last core varies fastest), in chunks of
    ``BATCH`` rows.
    """
    radix = levels.size
    total = radix**n  # Python int: exact however large
    if total > np.iinfo(np.int64).max:
        raise SolverError(
            f"constant lattice of {radix}^{n} assignments overflows int64 indices"
        )
    place = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, BATCH):
        index = np.arange(start, min(start + BATCH, total), dtype=np.int64)
        yield levels[index[:, None] // place % radix]


@engine_entrypoint("EXS")
def exs(engine: ThermalEngine) -> SchedulerResult:
    """The paper's Algorithm 1 (vectorized full enumeration).

    Raises
    ------
    InfeasibleError
        If not even the all-lowest assignment fits under ``T_max``.
    SolverError
        If the lattice is too large to index in int64.
    """
    mark = engine.checkpoint()
    t0 = time.perf_counter()
    levels = np.asarray(engine.ladder.levels)
    theta_max = engine.theta_max

    best_throughput = -np.inf
    best_voltages: np.ndarray | None = None
    best_peak = np.inf
    evaluations = 0

    for volts in _lattice_chunks(levels, engine.n_cores):
        evaluations += volts.shape[0]
        theta = engine.steady_state_batch(volts)  # (batch, n)
        peaks = theta.max(axis=1)
        feasible = peaks <= theta_max + 1e-9
        if not feasible.any():
            continue
        sums = volts.sum(axis=1)
        sums[~feasible] = -np.inf
        k = int(np.argmax(sums))
        if sums[k] > best_throughput:
            best_throughput = float(sums[k])
            best_voltages = volts[k].copy()  # not a view pinning the chunk
            best_peak = float(peaks[k])

    elapsed = time.perf_counter() - t0
    if best_voltages is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={theta_max:.2f} K"
        )
    return _result(
        best_voltages, best_peak, elapsed, "EXS", evaluations,
        stats=engine.stats_since(mark),
    )


def pruned_lattice_search(
    platform: Platform, active: np.ndarray, incumbent: float
) -> tuple[np.ndarray | None, float, int]:
    """Best feasible constant assignment whose sum beats ``incumbent``.

    Assigns the ``active`` cores, in order, a level of the platform's
    ladder; the other cores stay power-gated at 0.  The answer is
    exactly that of the recursive depth-first search trying levels high
    to low, which skips a level whose *optimistic* completion (remaining
    active cores at the lowest level) already tops ``T_max``
    (monotonicity), skips a node whose partial sum plus ``v_max`` per
    unassigned core does not beat the incumbent by 1e-12, and lets a leaf
    that does become the incumbent.

    Here the tree grows one core at a time instead: each depth prices the
    children of the whole surviving frontier (rows in depth-first order)
    in ``steady_state_batch`` calls of at most ``BATCH`` rows, then the
    leaf acceptance is replayed in depth-first order.  The recursion's
    first leaf, a greedy dive, is taken first, so the bound prunes as
    tightly as the recursion's does after it.  The replay checks leaves
    only, so it could disagree with the recursion only if rounding let a
    leaf's sum top an ancestor's bound by an ulp with the incumbent in
    that gap.

    Returns ``(voltages, peak, rows)``: the winner (``None`` when nothing
    beats ``incumbent``), its steady-state peak and the rows priced.
    """
    steady_state_batch = platform.model.steady_state_batch
    theta_max = platform.theta_max
    desc = np.asarray(platform.ladder.levels, dtype=float)[::-1]
    v_min, v_max = float(desc[-1]), float(desc[0])
    active = np.asarray(active, dtype=np.intp)
    n = active.size
    rows = 0

    def expand(nodes, sums, pos):
        """The feasible children of ``nodes`` at core ``active[pos]``."""
        nonlocal rows
        kids = np.repeat(nodes, desc.size, axis=0)
        kids[:, active[pos]] = np.tile(desc, sums.size)
        kid_sums = np.repeat(sums, desc.size) + np.tile(desc, sums.size)
        rows += kids.shape[0]
        peaks = np.concatenate([
            steady_state_batch(kids[i : i + BATCH]).max(axis=1)
            for i in range(0, kids.shape[0], BATCH)
        ])
        ok = peaks <= theta_max + 1e-9
        return kids[ok], kid_sums[ok], peaks[ok]

    base = np.zeros((1, platform.n_cores))
    base[0, active] = v_min
    best, best_volts, best_peak = float(incumbent), None, np.inf
    if n == 0:  # the all-gated vector is the only leaf
        peak = float(steady_state_batch(base).max())
        if peak <= theta_max + 1e-9 and 0.0 > best + 1e-12:
            return base[0], peak, 1
        return None, np.inf, 1

    nodes, sums = base, np.zeros(1)
    for pos in range(n):  # greedy dive: first feasible child each time
        if sums[0] + (n - pos) * v_max <= best + 1e-12:
            break
        nodes, sums, peaks = (a[:1] for a in expand(nodes, sums, pos))
        if not sums.size:
            break
    else:
        if sums[0] > best + 1e-12:
            best, best_volts, best_peak = (
                float(sums[0]), nodes[0].copy(), float(peaks[0])
            )

    nodes, sums = base, np.zeros(1)
    for pos in range(n):
        keep = ~(sums + (n - pos) * v_max <= best + 1e-12)
        if not keep.any():
            return best_volts, best_peak, rows
        nodes, sums, peaks = expand(nodes[keep], sums[keep], pos)

    start = 0  # replay the depth-first acceptance over the leaves
    while (beat := np.flatnonzero(sums[start:] > best + 1e-12)).size:
        start += int(beat[0])
        best, best_volts, best_peak = (
            float(sums[start]), nodes[start].copy(), float(peaks[start])
        )
        start += 1
    return best_volts, best_peak, rows


@engine_entrypoint("EXS-pruned")
def exs_pruned(engine: ThermalEngine) -> SchedulerResult:
    """Monotonicity-pruned exact search (same answer as :func:`exs`).

    :func:`pruned_lattice_search` over every core with no incumbent;
    ``details["evaluations"]`` counts the voltage rows it priced.
    """
    mark = engine.checkpoint()
    t0 = time.perf_counter()
    volts, peak, rows = pruned_lattice_search(
        engine.platform, np.arange(engine.n_cores), incumbent=-np.inf
    )
    elapsed = time.perf_counter() - t0
    if volts is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={engine.theta_max:.2f} K"
        )
    return _result(
        volts, peak, elapsed, "EXS-pruned", rows,
        stats=engine.stats_since(mark),
    )
