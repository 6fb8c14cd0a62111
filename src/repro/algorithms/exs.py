"""EXS — exhaustive single-mode search (Algorithm 1).

Every core runs one constant discrete mode; enumerate all ``L^N``
assignments, keep the feasible one (steady state under ``T_max``) with the
highest total speed.  Two searches over that constant lattice:

* :func:`exs` — the paper's Algorithm 1.  Every assignment is priced,
  by superposition of per-core steady-state contributions over blocks of
  up to ``BATCH`` assignments (``itertools.product`` order), with exact
  solves only near the threshold, so the answer is bit for bit that of
  solving every row.  Even the 9-core x 5-level grid (~2M assignments)
  is quick, but complexity stays exponential — this is the Table V cost
  story.
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

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import InfeasibleError, SolverError
from repro.platform import Platform
from repro.schedule.builders import constant_schedule
from repro.tolerances import BAND_FLOOR, FEASIBILITY_SLACK, IMPROVEMENT_MARGIN, TIE
from repro.tolerances import within_threshold

__all__ = ["exs", "exs_pruned", "pruned_lattice_search"]

#: Assignments evaluated per vectorized block (bounds peak memory).
BATCH = 65536


def _result(voltages: np.ndarray, peak: float, name: str,
            evaluations: int) -> SchedulerResult:
    return SchedulerResult(
        name=name,
        schedule=constant_schedule(voltages, period=0.02),
        throughput=float(np.mean(voltages)),
        peak_theta=float(peak),
        feasible=True,
        details={"evaluations": evaluations},
    )


def _lattice_rows(levels: np.ndarray, n: int, index) -> np.ndarray:
    """The ``(len(index), n)`` voltage rows of lattice assignments ``index``.

    Assignment ``i`` is the ``i``-th of ``itertools.product(range(L),
    repeat=n)`` (C order: the last core varies fastest).
    """
    radix = levels.size
    place = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return levels[np.asarray(index, dtype=np.int64)[:, None] // place % radix]


def _outer_sums(parts: list[np.ndarray], lead: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix outer sums of per-core ``lead + (L,)`` parts.

    Entry ``[..., i]`` is the sum of the parts at the digits of ``i``
    (C order, the last part varies fastest); no parts give zeros of
    shape ``lead + (1,)``.  Parts fold in last to first, each as the new
    leading digit over the whole block so far, so the inner loop runs
    over the long axis.
    """
    acc = np.zeros(lead + (1,))
    for part in reversed(parts):
        acc = (part[..., :, None] + acc[..., None, :]).reshape(lead + (-1,))
    return acc


@engine_entrypoint("EXS")
def exs(engine: ThermalEngine) -> SchedulerResult:
    """The paper's Algorithm 1 (full enumeration, priced by superposition).

    Every one of the ``L^N`` assignments is priced, in C order.  The
    steady state is linear in the per-core injections, so a row's core
    temperatures are the sum of one contribution ``psi_i(v) *
    core_response[:, i]`` per core, and whole blocks of rows are outer
    sums of those vectors; no voltage matrix or linear solve is needed
    per row.  Superposition rounds differently from the Cholesky solve
    of :meth:`~repro.thermal.model.ThermalModel.steady_state_batch`, so
    three steps keep the answer that of the exact solve:

    * rows whose superposed peak lies within :func:`_band` of the
      threshold are re-priced exactly and the exact peak decides;
    * feasible rows within ``TIE`` of the best superposed sum are
      re-summed exactly, and the first maximum in C order wins;
    * the winner's peak comes from an exact solve of its row.

    ``details["evaluations"]`` and the engine's ``steady_state_batch_rows``
    both count the ``L^N`` rows priced.

    Raises
    ------
    InfeasibleError
        If not even the all-lowest assignment fits under ``T_max``.
    SolverError
        If the lattice is too large to index in int64.
    """
    levels = np.asarray(engine.ladder.levels)
    n = engine.n_cores
    radix = levels.size
    total = radix**n  # Python int: exact however large
    if total > np.iinfo(np.int64).max:
        raise SolverError(
            f"constant lattice of {radix}^{n} assignments overflows int64 indices"
        )
    model = engine.model
    theta_max = engine.theta_max
    threshold = theta_max + FEASIBILITY_SLACK
    band = _band(engine, threshold)

    # Per-core contributions: temps[i][:, l] = psi_i(level l) * R[:, i].
    psi = np.asarray(model.power.psi(np.broadcast_to(levels[:, None], (radix, n))))
    temps = list((model.core_response[:, :, None] * psi.T).transpose(1, 0, 2))
    volts = [levels] * n

    # Rows split into a leading-digit prefix and a block of s suffix cores.
    s = 0
    while s < n and radix ** (s + 1) <= BATCH:
        s += 1
    head_t = _outer_sums(temps[: n - s], (n,))
    head_v = _outer_sums(volts[: n - s], ())
    tail_t = _outer_sums(temps[n - s :], (n,))
    tail_v = _outer_sums(volts[n - s :], ())
    width = tail_v.size

    exact_rows = 0
    best = -np.inf
    picks, pick_sums = [], []
    block = np.empty_like(tail_t)
    for p in range(head_v.size):
        np.add(tail_t, head_t[:, p, None], out=block)
        peaks = block.max(axis=0)
        feasible = peaks < threshold - band
        near = np.flatnonzero(np.abs(peaks - threshold) <= band)
        if near.size:
            rows = _lattice_rows(levels, n, p * width + near)
            exact_rows += near.size
            feasible[near] = within_threshold(
                engine.steady_state_batch(rows).max(axis=1), theta_max
            )
        sums = np.where(feasible, head_v[p] + tail_v, -np.inf)
        top = sums.max()
        if top == -np.inf or top < best - TIE:
            continue
        best = max(best, top)
        keep = np.flatnonzero(sums >= best - TIE)
        picks.append(p * width + keep)
        pick_sums.append(sums[keep])

    best_voltages: np.ndarray | None = None
    if picks:
        sums = np.concatenate(pick_sums)
        rows = _lattice_rows(levels, n, np.concatenate(picks)[sums >= best - TIE])
        best_voltages = rows[int(np.argmax(rows.sum(axis=1)))]
        best_peak = float(engine.steady_state_batch(best_voltages[None]).max())
        exact_rows += 1
    # The lattice rows were priced once each; the exact re-prices of band
    # and winner rows are not counted again.
    model.ss_batch_rows += total - exact_rows

    if best_voltages is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={theta_max:.2f} K"
        )
    return _result(best_voltages, best_peak, "EXS", total)


def _band(engine: ThermalEngine, threshold: float) -> float:
    """Half-width (K) of the threshold band that :func:`exs` re-prices.

    A forward-error bound on the gap between a superposed and a solved
    steady state near the threshold.  Each Cholesky solve of
    ``G - E_beta`` errs by about ``3 n_nodes eps cond |theta|_2`` at
    most, and summing ``n_cores`` non-negative contributions adds
    ``n_cores eps |theta|_2``.  No node injects heat but the cores, so
    none is hotter than the hottest core and ``|theta|_2 <= sqrt(n_nodes)
    * threshold``; with ``n_cores <= n_nodes``, ``8 n_nodes^2 eps cond
    threshold`` covers both paths.  Floored at ``BAND_FLOOR``.
    """
    n_nodes = engine.model.n_nodes
    bound = (
        8.0 * n_nodes**2 * np.finfo(float).eps
        * engine.condition_number() * abs(threshold)
    )
    return max(BAND_FLOOR, bound)


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
    unassigned core does not beat the incumbent by ``IMPROVEMENT_MARGIN``,
    and lets a leaf that does become the incumbent.

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
        ok = within_threshold(peaks, theta_max)
        return kids[ok], kid_sums[ok], peaks[ok]

    base = np.zeros((1, platform.n_cores))
    base[0, active] = v_min
    best, best_volts, best_peak = float(incumbent), None, np.inf
    if n == 0:  # the all-gated vector is the only leaf
        peak = float(steady_state_batch(base).max())
        if within_threshold(peak, theta_max) and 0.0 > best + IMPROVEMENT_MARGIN:
            return base[0], peak, 1
        return None, np.inf, 1

    nodes, sums = base, np.zeros(1)
    for pos in range(n):  # greedy dive: first feasible child each time
        if sums[0] + (n - pos) * v_max <= best + IMPROVEMENT_MARGIN:
            break
        nodes, sums, peaks = (a[:1] for a in expand(nodes, sums, pos))
        if not sums.size:
            break
    else:
        if sums[0] > best + IMPROVEMENT_MARGIN:
            best, best_volts, best_peak = (
                float(sums[0]), nodes[0].copy(), float(peaks[0])
            )

    nodes, sums = base, np.zeros(1)
    for pos in range(n):
        keep = ~(sums + (n - pos) * v_max <= best + IMPROVEMENT_MARGIN)
        if not keep.any():
            return best_volts, best_peak, rows
        nodes, sums, peaks = expand(nodes[keep], sums[keep], pos)

    start = 0  # replay the depth-first acceptance over the leaves
    while (beat := np.flatnonzero(sums[start:] > best + IMPROVEMENT_MARGIN)).size:
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
    volts, peak, rows = pruned_lattice_search(
        engine.platform, np.arange(engine.n_cores), incumbent=-np.inf
    )
    if volts is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={engine.theta_max:.2f} K"
        )
    return _result(volts, peak, "EXS-pruned", rows)
