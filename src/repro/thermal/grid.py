"""Cross-platform batched thermal kernels: (platform × schedule) grids.

:mod:`repro.thermal.batch` vectorized K candidate schedules sharing *one*
thermal model.  The comparison/certify/faults sweeps, however, price
schedules across P platforms — and looped over platforms, re-entering the
batched kernels P times.  This module vectorizes that remaining axis: the
per-platform eigenbases ``(W, lam, W^{-1})`` are small dense matrices, so
they stack into padded 3-D tensors and the whole grid reduces to a few
batched ``matmul`` / elementwise-``exp`` passes.

Padding discipline (the whole trick):

* The **node axis** is padded to ``n_max = max_p(n_nodes)``.  Padded
  eigenvalues are set to ``-1.0`` — any negative value works, it only has
  to keep the eq.-(4) fixed-point divide ``y / (1 - exp(lam * t_p))``
  away from zero.  ``W`` and ``W^{-1}`` are zero-padded, so padded modal
  coordinates start at zero, stay exactly zero through the linear
  recurrences, and contribute exactly nothing to any temperature — grid
  results match the scalar path bit-for-bit in exact arithmetic and to
  1e-9 in floating point.
* The **core axis** is padded to ``c_max`` with index 0 (a valid node);
  padded core columns are masked to ``-inf`` before any maximum.
* The **interval axis** reuses the PR-1 discipline: zero-length padding
  intervals are identity propagators.

Rows of the grid are (platform, schedule) pairs; per-row eigenbases are
gathered by fancy-indexing the stacked tensors with the row's platform
index, so P platforms and R rows cost one tensor walk regardless of how
the rows distribute over platforms.  Dense scans are chunked along the
row axis like :data:`repro.thermal.batch.GRID_CHUNK_ELEMENTS` (same env
override) to bound peak memory.

Entry points mirror the single-platform batch API:

* :func:`periodic_steady_state_grid` — eq.-(4) stable statuses,
* :func:`stepup_peak_temperature_grid` — Theorem-1 peaks + wrap grid,
* :func:`peak_temperature_grid` — the general MatEx-style search with
  the step-up fast path applied per row.

Every entry takes ``items``: a sequence of ``(model, schedule)`` pairs
(models may repeat in any order; each distinct model contributes one
stacked eigenbasis slot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError
from repro.obs import METRICS
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.properties import is_step_up
from repro.thermal.batch import grid_chunk_elements
from repro.thermal.model import ThermalModel
from repro.thermal.peak import PeakResult
from repro.thermal.periodic import PeriodicSolution

__all__ = [
    "periodic_steady_state_grid",
    "stepup_peak_temperature_grid",
    "peak_temperature_grid",
]

GridItem = "tuple[ThermalModel, PeriodicSchedule]"

#: Padding eigenvalue for node slots beyond a platform's true dimension.
#: Negative so ``1 - exp(lam * t_p)`` never vanishes; the associated
#: modal coordinates are identically zero so the value is inert.
_PAD_EIGENVALUE = -1.0


@dataclass(frozen=True)
class _GridStack:
    """Stacked stable-status solution of R (platform, schedule) rows.

    Platform tensors are padded along the node/core axes to the largest
    platform; row tensors are additionally padded along the interval axis
    to ``Z = max_r(z_r)`` exactly like :class:`repro.thermal.batch._Stack`.
    """

    models: tuple[ThermalModel, ...]  # distinct platforms, first-seen order
    schedules: tuple[PeriodicSchedule, ...]  # R rows
    pidx: np.ndarray  # (R,) row -> platform slot
    # --- platform axis (P, ...) ---
    lam: np.ndarray  # (P, n_max) eigenvalues, padded with _PAD_EIGENVALUE
    w: np.ndarray  # (P, n_max, n_max) eigenvectors, zero-padded
    w_inv: np.ndarray  # (P, n_max, n_max) inverse bases, zero-padded
    cores: np.ndarray  # (P, c_max) core node indices, padded with 0
    core_mask: np.ndarray  # (P, c_max) True on real cores
    n_cores: np.ndarray  # (P,) true core counts
    n_nodes: np.ndarray  # (P,) true node counts
    # --- row axis (R, ...) ---
    z: np.ndarray  # (R,) true interval counts
    lengths: np.ndarray  # (R, Z) interval lengths, 0-padded
    starts: np.ndarray  # (R, Z) interval start offsets within the period
    mask: np.ndarray  # (R, Z) True on real intervals
    t_inf: np.ndarray  # (R, Z, n_max) theta-space steady states
    y_bound: np.ndarray  # (R, Z + 1, n_max) eigenbasis boundary states
    theta_bound: np.ndarray  # (R, Z + 1, n_max) theta-space boundary states
    g: np.ndarray  # (R, Z, n_max) eigenbasis steady states

    @property
    def r(self) -> int:
        return len(self.schedules)

    @property
    def n_pad(self) -> int:
        return self.lengths.shape[1]

    @property
    def n_max(self) -> int:
        return self.lam.shape[1]

    @property
    def c_max(self) -> int:
        return self.cores.shape[1]

    def modal(self) -> np.ndarray:
        """``(R, Z, n_max)`` eigenbasis modal coefficients per interval."""
        return self.y_bound[:, :-1, :] - self.g

    def row_lam(self) -> np.ndarray:
        """``(R, n_max)`` per-row eigenvalues (gathered platform slots)."""
        return self.lam[self.pidx]


def _stack_platforms(models: "list[ThermalModel]"):
    """Pad the eigenbases of distinct models into (P, ...) tensors."""
    n_max = max(m.n_nodes for m in models)
    c_max = max(m.n_cores for m in models)
    p = len(models)
    lam = np.full((p, n_max), _PAD_EIGENVALUE)
    w = np.zeros((p, n_max, n_max))
    w_inv = np.zeros((p, n_max, n_max))
    cores = np.zeros((p, c_max), dtype=int)
    core_mask = np.zeros((p, c_max), dtype=bool)
    n_cores = np.zeros(p, dtype=int)
    n_nodes = np.zeros(p, dtype=int)
    for j, model in enumerate(models):
        n = model.n_nodes
        eig = model.eigen
        lam[j, :n] = eig.eigenvalues
        w[j, :n, :n] = eig.w
        w_inv[j, :n, :n] = eig.w_inv
        c = model.network.core_nodes
        cores[j, : c.shape[0]] = c
        core_mask[j, : c.shape[0]] = True
        n_cores[j] = c.shape[0]
        n_nodes[j] = n
    return lam, w, w_inv, cores, core_mask, n_cores, n_nodes


def _solve_grid(items) -> _GridStack:
    """Stack R (model, schedule) rows and resolve every stable status."""
    items = tuple(items)
    models: list[ThermalModel] = []
    slots: dict[int, int] = {}
    pidx = np.empty(len(items), dtype=int)
    for i, (model, _) in enumerate(items):
        slot = slots.get(id(model))
        if slot is None:
            slot = len(models)
            slots[id(model)] = slot
            models.append(model)
        pidx[i] = slot
    schedules = tuple(sched for _, sched in items)

    METRICS.counter("grid.calls").inc()
    METRICS.counter("grid.rows").inc(len(items))
    METRICS.counter("grid.platforms").inc(len(models))

    lam, w, w_inv, cores, core_mask, n_cores, n_nodes = _stack_platforms(models)
    n_max = lam.shape[1]
    r = len(items)
    z = np.array([s.n_intervals for s in schedules], dtype=int)
    z_max = int(z.max()) if r else 0

    lengths = np.zeros((r, z_max))
    t_inf = np.zeros((r, z_max, n_max))
    # Dedup steady states per (platform, exact voltage tuple), then solve
    # each platform's unique vectors in one shared-Cholesky batch.
    local: dict[tuple[int, tuple], np.ndarray] = {}
    per_slot: dict[int, list[tuple]] = {}
    row_keys = []
    for i, (model, sched) in enumerate(items):
        slot = int(pidx[i])
        keys = [(slot, volts) for volts in map(tuple, sched.voltage_matrix.tolist())]
        row_keys.append(keys)
        for key in keys:
            if key not in local:
                local[key] = None  # type: ignore[assignment]
                per_slot.setdefault(slot, []).append(key[1])
    for slot, volt_list in per_slot.items():
        for volts, theta in zip(
            volt_list, models[slot].steady_state_many(volt_list)
        ):
            local[(slot, volts)] = theta
    for i, ((model, sched), keys) in enumerate(zip(items, row_keys)):
        n = model.n_nodes
        lengths[i, : sched.n_intervals] = sched.lengths
        for q, key in enumerate(keys):
            t_inf[i, q, :n] = local[key]
    mask = np.arange(z_max)[None, :] < z[:, None]
    starts = np.concatenate(
        [np.zeros((r, 1)), np.cumsum(lengths, axis=1)[:, :-1]], axis=1
    ) if z_max else np.zeros((r, 0))

    # Eigenbasis steady states via per-row gathered bases:
    # (R, Z, n) @ (R, n, n)^T -> (R, Z, n).  Zero-padded basis rows keep
    # every padded coordinate exactly zero.
    w_inv_rows = w_inv[pidx]
    g = np.matmul(t_inf, w_inv_rows.transpose(0, 2, 1))
    lam_rows = lam[pidx]
    decay = np.exp(lengths[:, :, None] * lam_rows[:, None, :])

    # Affine part of one period from theta(0) = 0, then the eq.-(4) fixed
    # point — diagonal monodromy, so (I - K)^{-1} is an elementwise divide
    # (nonzero on padded slots thanks to the negative padding eigenvalue).
    y = np.zeros((r, n_max))
    for q in range(z_max):
        y = g[:, q] + decay[:, q] * (y - g[:, q])
    t_p = lengths.sum(axis=1)
    y0 = y / (1.0 - np.exp(t_p[:, None] * lam_rows)) if r else y

    y_bound = np.empty((r, z_max + 1, n_max))
    y_bound[:, 0] = y0
    for q in range(z_max):
        y_bound[:, q + 1] = g[:, q] + decay[:, q] * (y_bound[:, q] - g[:, q])
    theta_bound = np.matmul(y_bound, w[pidx].transpose(0, 2, 1))

    return _GridStack(
        models=tuple(models),
        schedules=schedules,
        pidx=pidx,
        lam=lam,
        w=w,
        w_inv=w_inv,
        cores=cores,
        core_mask=core_mask,
        n_cores=n_cores,
        n_nodes=n_nodes,
        z=z,
        lengths=lengths,
        starts=starts,
        mask=mask,
        t_inf=t_inf,
        y_bound=y_bound,
        theta_bound=theta_bound,
        g=g,
    )


def periodic_steady_state_grid(items) -> list[PeriodicSolution]:
    """Eq.-(4) stable statuses of R (platform, schedule) rows at once.

    Parameters
    ----------
    items:
        Sequence of ``(model, schedule)`` pairs; models may repeat and
        differ in node/core counts.

    Returns
    -------
    One :class:`~repro.thermal.periodic.PeriodicSolution` per row, in
    input order, matching the scalar
    :func:`repro.thermal.periodic.periodic_steady_state` to 1e-9.
    """
    items = tuple(items)
    if not items:
        return []
    stack = _solve_grid(items)
    out = []
    for i, (model, sched) in enumerate(items):
        out.append(
            PeriodicSolution(
                schedule=sched,
                boundary_temperatures=stack.theta_bound[
                    i, : stack.z[i] + 1, : model.n_nodes
                ].copy(),
            )
        )
    return out


def _grid_scan_rows(stack: _GridStack, grid: int, chunk: slice):
    """Dense core-temperature scan of a row chunk.

    Returns ``(times, temps)`` with shapes ``(r, Z, G)`` and
    ``(r, Z, G, c_act)`` where ``c_act <= c_max`` is the chunk's own
    largest core count — the node/core axes are trimmed to the chunk's
    actual maxima (padded slots beyond them are inert by construction),
    so a chunk of small platforms never pays for the grid's largest one.
    Padded cores below ``c_act`` carry node-0 temperatures; callers mask
    them with ``stack.core_mask``.
    """
    n_grid = max(int(grid), 2)
    rows = stack.pidx[chunk]
    n_act = int(stack.n_nodes[rows].max())
    c_act = int(stack.n_cores[rows].max())
    lam_rows = stack.lam[rows][:, :n_act]  # (r, n_act)
    frac = np.linspace(0.0, 1.0, n_grid)
    times = stack.lengths[chunk][:, :, None] * frac[None, None, :]
    modal = stack.modal()[chunk][:, :, :n_act]
    # (r, Z, G, n) elementwise, then contract modes against the core rows
    # of each row's W: (r, Z, G, n) @ (r, 1, n, c) -> (r, Z, G, c).
    phase = np.exp(times[:, :, :, None] * lam_rows[:, None, None, :])
    w_cores = np.take_along_axis(
        stack.w[rows][:, :, :n_act], stack.cores[rows][:, :c_act, None], axis=1
    )  # (r, c_act, n_act)
    temps = np.matmul(phase * modal[:, :, None, :],
                      w_cores.transpose(0, 2, 1)[:, None, :, :])
    t_inf_cores = np.take_along_axis(
        stack.t_inf[chunk], stack.cores[rows][:, None, :c_act], axis=2
    )  # (r, Z, c_act)
    temps += t_inf_cores[:, :, None, :]
    return times, temps


def _grid_chunks_rows(stack: _GridStack, grid: int):
    """Yield ``(chunk_slice, times, temps)`` bounding peak memory.

    Chunks never cross a node-count boundary in the row order: a run of
    same-sized platforms scans at its *own* width (see
    :func:`_grid_scan_rows`), so grids whose rows arrive grouped by
    platform — how every sweep builds them — pay no padding waste for
    their small platforms.  Interleaved row orders still evaluate
    correctly, just in shorter chunks.
    """
    per_row = max(stack.n_pad * max(int(grid), 2) * stack.n_max, 1)
    step = max(1, grid_chunk_elements() // per_row)
    sizes = stack.n_nodes[stack.pidx]
    bounds = [0, *(np.nonzero(np.diff(sizes))[0] + 1), stack.r]
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        for lo in range(int(b0), int(b1), step):
            chunk = slice(lo, min(lo + step, int(b1)))
            times, temps = _grid_scan_rows(stack, grid, chunk)
            yield chunk, times, temps


def _row_mask(stack: _GridStack, chunk: slice, c_act: int) -> np.ndarray:
    """``(r, Z, 1, c_act)`` combined interval × core validity mask."""
    return (
        stack.mask[chunk][:, :, None, None]
        & stack.core_mask[stack.pidx[chunk]][:, None, None, :c_act]
    )


def _boundary_core_temps(stack: _GridStack) -> np.ndarray:
    """``(R, c_max)`` period-end core temperatures (padded cores junk)."""
    r = stack.r
    end = stack.theta_bound[np.arange(r), stack.z, :]  # (R, n_max)
    return np.take_along_axis(end, stack.cores[stack.pidx], axis=1)


def stepup_peak_temperature_grid(
    items,
    check: bool = True,
    wrap_refine: bool = True,
    grid: int = 24,
) -> list[PeakResult]:
    """Theorem-1 stable peaks of R (platform, schedule) step-up rows.

    The cross-platform analogue of
    :func:`repro.thermal.batch.stepup_peak_temperature_batch`: one stacked
    stable-status pass plus one chunked wrap-continuation grid for the
    whole (platform × schedule) grid.  Matches the scalar
    :func:`repro.thermal.peak.stepup_peak_temperature` per row to 1e-9.
    """
    items = tuple(items)
    if check:
        for _, sched in items:
            if not is_step_up(sched):
                raise ScheduleError(
                    "stepup_peak_temperature requires a step-up schedule; "
                    "use peak_temperature_grid for arbitrary schedules"
                )
    if not items:
        return []
    stack = _solve_grid(items)
    r = stack.r
    cmask = stack.core_mask[stack.pidx]  # (R, c_max)

    end = np.where(cmask, _boundary_core_temps(stack), -np.inf)
    core_peaks = end.copy()
    best_core = np.argmax(end, axis=1)
    best_val = end[np.arange(r), best_core]
    best_time = np.array([s.period for s in stack.schedules])

    if wrap_refine:
        for chunk, times, temps in _grid_chunks_rows(stack, grid):
            kc, zc, gc, cc = temps.shape
            masked = np.where(_row_mask(stack, chunk, cc), temps, -np.inf)
            sub = core_peaks[chunk][:, :cc]
            np.maximum(sub, masked.max(axis=(1, 2)), out=sub)
            flat = masked.reshape(kc, -1)
            arg = np.argmax(flat, axis=1)
            vals = flat[np.arange(kc), arg]
            better = vals > best_val[chunk]
            if better.any():
                qi, gi, ci = np.unravel_index(arg, (zc, gc, cc))
                rows = np.arange(kc)
                when = stack.starts[chunk][rows, qi] + times[rows, qi, gi]
                base = chunk.start if chunk.start else 0
                for j in np.where(better)[0]:
                    best_val[base + j] = vals[j]
                    best_core[base + j] = ci[j]
                    best_time[base + j] = when[j]

    n_cores = stack.n_cores[stack.pidx]
    return [
        PeakResult(
            value=float(best_val[i]),
            core=int(best_core[i]),
            time=float(best_time[i]),
            core_peaks=core_peaks[i, : n_cores[i]].copy(),
        )
        for i in range(r)
    ]


def _refine_interval_best_rows(
    stack: _GridStack,
    times: np.ndarray,
    temps: np.ndarray,
    chunk: slice,
) -> list[list[tuple[float, int, float] | None]]:
    """Per-interval best (value, core, local time), Brent-refined.

    The cross-platform mirror of
    :func:`repro.thermal.batch._refine_interval_best`, with every basis
    quantity gathered per row.  Padded intervals and padded cores yield
    no candidates.
    """
    rows = stack.pidx[chunk]
    kc, zc, gc, cc = temps.shape
    n_act = int(stack.n_nodes[rows].max())
    lam_rows = stack.lam[rows][:, :n_act]  # (r, n_act)
    w_cores = np.take_along_axis(
        stack.w[rows][:, :, :n_act], stack.cores[rows][:, :cc, None], axis=1
    )  # (r, cc, n_act)
    modal = stack.modal()[chunk][:, :, :n_act]
    cmask = stack.core_mask[rows][:, :cc]  # (r, cc)
    neg_temps = np.where(cmask[:, None, None, :], temps, -np.inf)

    j_star = np.argmax(temps, axis=2)  # (r, Z, C)
    j_lo = np.maximum(j_star - 1, 0)
    j_hi = np.minimum(j_star + 1, gc - 1)
    t_lo = np.take_along_axis(times, j_lo.reshape(kc, zc, -1), axis=2).reshape(
        kc, zc, cc
    )
    t_hi = np.take_along_axis(times, j_hi.reshape(kc, zc, -1), axis=2).reshape(
        kc, zc, cc
    )
    # Derivative of core c at local time t:
    # sum_m (W[c, m] * modal_m) * lam_m * e^{lam_m t}.
    modal_c = w_cores[:, None, :, :] * modal[:, :, None, :]  # (r, Z, C, n)
    lam_b = lam_rows[:, None, None, :]
    d_lo = np.sum(modal_c * lam_b * np.exp(lam_b * t_lo[..., None]), axis=3)
    d_hi = np.sum(modal_c * lam_b * np.exp(lam_b * t_hi[..., None]), axis=3)
    needs_brent = (
        (d_lo > 0)
        & (d_hi < 0)
        & (t_hi > t_lo)
        & stack.mask[chunk][:, :, None]
        & cmask[:, None, :]
    )

    # Grid winner of every (row, interval) cell in one shot (padded cores
    # excluded via the -inf mask).
    flat_iq = neg_temps.reshape(kc, zc, -1).argmax(axis=2)  # (r, Z)
    gi_all, ci_all = np.unravel_index(flat_iq, (gc, cc))
    val_all = np.take_along_axis(
        neg_temps.reshape(kc, zc, -1), flat_iq[:, :, None], axis=2
    )[:, :, 0]
    t_all = np.take_along_axis(times, gi_all[:, :, None], axis=2)[:, :, 0]

    cores_rows = stack.cores[rows][:, :cc]

    # Every bracketed candidate across the whole chunk refines at once:
    # the derivative crosses + -> - inside [t_lo, t_hi], so 64 vectorized
    # bisection halvings pin the extremum to ~2^-64 of the bracket — and
    # the temperature is *flat* there (d/dt = 0), so the residual time
    # error contributes far below the 1e-9 parity budget the scalar
    # brentq path is held to.
    ri, qi, ci = np.nonzero(needs_brent)
    if ri.size:
        mc = modal_c[ri, qi, ci]  # (N, n)
        lam_sel = lam_rows[ri]  # (N, n)
        lo = t_lo[ri, qi, ci].copy()
        hi = t_hi[ri, qi, ci].copy()
        d_coeff = mc * lam_sel
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            d_mid = np.einsum(
                "kn,kn->k", d_coeff, np.exp(lam_sel * mid[:, None])
            )
            pos = d_mid > 0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        t_star = 0.5 * (lo + hi)
        vals = stack.t_inf[chunk][ri, qi, cores_rows[ri, ci]] + np.einsum(
            "kn,kn->k", mc, np.exp(lam_sel * t_star[:, None])
        )
        for k in range(ri.size):
            i, q = ri[k], qi[k]
            if vals[k] > val_all[i, q]:
                val_all[i, q] = vals[k]
                ci_all[i, q] = ci[k]
                t_all[i, q] = t_star[k]

    mask_c = stack.mask[chunk]
    return [
        [
            (float(val_all[i, q]), int(ci_all[i, q]), float(t_all[i, q]))
            if mask_c[i, q]
            else None
            for q in range(zc)
        ]
        for i in range(kc)
    ]


def peak_temperature_grid(
    items,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> list[PeakResult]:
    """Stable-status peaks of R (platform, schedule) rows in one pass.

    The cross-platform counterpart of
    :func:`repro.thermal.batch.peak_temperature_batch`: rows whose
    schedule is step-up take the Theorem-1 fast path (grid-batched), the
    rest get the dense-grid + Brent extrema search with the grids for the
    whole (platform × schedule) set evaluated at once.  Results land in
    input order and match :func:`repro.thermal.peak.peak_temperature`
    per row to 1e-9.
    """
    items = tuple(items)
    if not items:
        return []

    results: list[PeakResult | None] = [None] * len(items)
    general_idx = list(range(len(items)))
    if stepup_fast_path:
        stepup_idx = [i for i in general_idx if is_step_up(items[i][1])]
        general_idx = [i for i in general_idx if i not in set(stepup_idx)]
        if stepup_idx:
            fast = stepup_peak_temperature_grid(
                [items[i] for i in stepup_idx], check=False
            )
            for i, res in zip(stepup_idx, fast):
                results[i] = res
    if not general_idx:
        return results  # type: ignore[return-value]

    subset = tuple(items[i] for i in general_idx)
    stack = _solve_grid(subset)
    n_cores_rows = stack.n_cores[stack.pidx]

    for chunk, times, temps in _grid_chunks_rows(stack, grid_per_interval):
        masked = np.where(_row_mask(stack, chunk, temps.shape[3]), temps, -np.inf)
        grid_core_peaks = masked.max(axis=2)  # (r, Z, C)
        if refine:
            interval_best = _refine_interval_best_rows(stack, times, temps, chunk)
        else:
            interval_best = None
        base = chunk.start if chunk.start else 0
        for i in range(masked.shape[0]):
            nc = int(n_cores_rows[base + i])
            core_peaks = np.full(nc, -np.inf)
            best = (-np.inf, 0, 0.0)
            for q in range(stack.z[base + i]):
                core_peaks = np.maximum(core_peaks, grid_core_peaks[i, q, :nc])
                if interval_best is not None:
                    cand = interval_best[i][q]
                else:
                    flat = int(np.argmax(masked[i, q]))
                    gi, ci = np.unravel_index(flat, masked.shape[2:])
                    cand = (
                        float(temps[i, q, gi, ci]),
                        int(ci),
                        float(times[i, q, gi]),
                    )
                if cand is not None and cand[0] > best[0]:
                    best = (
                        cand[0],
                        cand[1],
                        stack.starts[base + i, q] + cand[2],
                    )
            core_peaks = np.maximum(
                core_peaks, best[0] * (np.arange(nc) == best[1])
            )
            results[general_idx[base + i]] = PeakResult(
                value=float(best[0]),
                core=int(best[1]),
                time=float(best[2]),
                core_peaks=core_peaks,
            )
    return results  # type: ignore[return-value]
