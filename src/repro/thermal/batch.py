"""Batched stable-status and peak evaluation for candidate schedules.

Every optimizer in this reproduction (the TPT ratio adjustment, the
m-oscillation sweep, PCO's phase search) prices *sets* of candidate
schedules that share one thermal model.  Because the system matrix ``A``
is constant across intervals, the whole stable-status machinery lives in
the eigenbasis of ``A``:

* each interval's propagator ``expm(A l)`` is the diagonal map
  ``y -> exp(lam * l) * y``,
* the monodromy of a period is ``exp(lam * t_p)`` — no dense product
  chain,
* the fixed point ``(I - K)^{-1} d`` of eq. (4) is the elementwise divide
  ``y_d / (1 - exp(lam * t_p))`` — no linear solve.

So K candidates that differ only in their interval lengths and ``t_inf``
vectors reduce to stacked elementwise recurrences over a ``(K, Z, n)``
tensor plus two dense basis changes for the whole batch.  This module
takes candidates as :class:`Rows` — stacked ``(z, lengths, volts)``
arrays, padded to the longest interval count (a zero-length interval is
the identity) — resolves all stable states at once, and mirrors the
scalar peak searches of :mod:`repro.thermal.peak` grid-for-grid so
results match the scalar path to solver precision.

Entry points on rows (the solvers build their candidates as rows and
never as schedule objects):

* :func:`stepup_peak_rows` — Theorem-1 peaks (plus the wrap-refine grid)
  for K step-up rows.
* :func:`peak_rows` — the general MatEx-style extrema search, with the
  step-up fast path applied per row.

No Python loop runs per row or per interval.  The stable states take
one :meth:`~repro.thermal.model.ThermalModel.steady_state_many` lookup
of the distinct voltage vectors.  The general search selects with
array arguments: each (row, interval) cell's candidate is its dense-grid
maximum (first in (sample, core) order); Brent's method runs only on the
bracketed (row, interval, core) cells, in that order, and replaces a
cell's candidate only when strictly greater; a row's peak is its first
interval of greatest candidate (what a scan keeping only strict
improvements picks), and its ``core_peaks`` one masked maximum.

Entry points on schedules, which stack them with :func:`stack_rows` and
call the row kernels:

* :func:`periodic_steady_state_batch` — eq. (4) fixed points for K
  schedules, one vectorized pass.
* :func:`stepup_peak_temperature_batch` — Theorem-1 peaks for K step-up
  schedules.
* :func:`peak_temperature_batch` — general peaks for arbitrary
  schedules.

These are the only vectorized thermal kernels: the cross-platform grid
entry points (:mod:`repro.thermal.grid`) call them once per distinct
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.properties import is_step_up
from repro.thermal.matex import GRID_CHUNK_ELEMENTS
from repro.thermal.model import ThermalModel
from repro.thermal.peak import PeakResult
from repro.thermal.periodic import PeriodicSolution
from repro.tolerances import VOLTAGE_ATOL
from repro.util.roots import brentq

__all__ = [
    "Rows",
    "PeakRows",
    "stack_rows",
    "stepup_peak_rows",
    "peak_rows",
    "periodic_steady_state_batch",
    "stepup_peak_temperature_batch",
    "peak_temperature_batch",
]


class Rows(NamedTuple):
    """K candidate schedules as stacked arrays, zero-padded to ``Z = max(z)``.

    A padding interval has zero length (an identity propagator), so the
    recurrences pass through it unchanged; its voltages are never read.
    """

    z: np.ndarray  # (K,) true interval counts
    lengths: np.ndarray  # (K, Z) interval lengths
    volts: np.ndarray  # (K, Z, n_cores) interval voltages

    def take(self, idx) -> "Rows":
        """The rows at ``idx``, padded only to their own widest row."""
        z = self.z[idx]
        width = int(z.max()) if z.size else 0
        return Rows(z, self.lengths[idx, :width], self.volts[idx, :width])


def stack_rows(pairs) -> Rows:
    """Stack ``(lengths, voltage_matrix)`` pairs into :class:`Rows`."""
    pairs = [(np.asarray(ls), np.asarray(vs)) for ls, vs in pairs]
    z = np.array([ls.size for ls, _ in pairs], dtype=int)
    width = int(z.max()) if z.size else 0
    n = pairs[0][1].shape[1] if pairs else 0
    lengths = np.zeros((len(pairs), width))
    volts = np.zeros((len(pairs), width, n))
    for i, (ls, vs) in enumerate(pairs):
        lengths[i, : ls.size] = ls
        volts[i, : ls.size] = vs
    return Rows(z, lengths, volts)


def _stack_schedules(schedules) -> Rows:
    return stack_rows((s.lengths, s.voltage_matrix) for s in schedules)


def _stepup_mask(rows: Rows) -> np.ndarray:
    """Per row, :func:`~repro.schedule.properties.is_step_up` of its schedule."""
    rise = rows.volts[:, 1:] - rows.volts[:, :-1]
    real = np.arange(1, rows.lengths.shape[1])[None, :] < rows.z[:, None]
    return np.all((rise >= -VOLTAGE_ATOL) | ~real[:, :, None], axis=(1, 2))


@dataclass(frozen=True)
class PeakRows:
    """Stable-status peaks of K rows, as arrays (one entry per row)."""

    value: np.ndarray  # (K,)
    core: np.ndarray  # (K,) hottest core
    time: np.ndarray  # (K,) peak instant within the period
    core_peaks: np.ndarray  # (K, n_cores)

    def result(self, i: int) -> PeakResult:
        """Row ``i`` as a :class:`~repro.thermal.peak.PeakResult`."""
        return PeakResult(
            value=float(self.value[i]),
            core=int(self.core[i]),
            time=float(self.time[i]),
            core_peaks=self.core_peaks[i].copy(),
        )

    def results(self) -> list[PeakResult]:
        return [self.result(i) for i in range(self.value.shape[0])]


@dataclass(frozen=True)
class _Stack:
    """Stacked stable-status solution of K candidate rows.

    All arrays are padded along the interval axis to ``Z = max(z_k)``;
    padding intervals have zero length (identity propagators) so the
    recurrences pass through them unchanged.
    """

    z: np.ndarray  # (K,) true interval counts
    lengths: np.ndarray  # (K, Z) interval lengths, 0-padded
    starts: np.ndarray  # (K, Z) interval start offsets within the period
    mask: np.ndarray  # (K, Z) True on real intervals
    t_inf: np.ndarray  # (K, Z, n) theta-space steady states, 0-padded
    g: np.ndarray  # (K, Z, n) eigenbasis steady states
    decay: np.ndarray  # (K, Z, n) exp(lam * length), 1 on padding
    y_bound: np.ndarray  # (K, Z + 1, n) eigenbasis boundary states
    theta_bound: np.ndarray  # (K, Z + 1, n) theta-space boundary states

    @property
    def k(self) -> int:
        return self.z.shape[0]

    @property
    def n_pad(self) -> int:
        return self.lengths.shape[1]

    def modal(self) -> np.ndarray:
        """``(K, Z, n)`` eigenbasis modal coefficients per interval.

        Within interval ``q`` of candidate k,
        ``theta(t) = t_inf + W @ (modal * exp(lam t))``.
        """
        return self.y_bound[:, :-1, :] - self.g


def _solve_stack(model: ThermalModel, rows: Rows) -> _Stack:
    """Resolve the stable status of every stacked row in one pass."""
    z, lengths = rows.z, rows.lengths
    k, z_max = lengths.shape
    n = model.n_nodes
    lam = model.eigen.eigenvalues

    t_inf = np.zeros((k, z_max, n))
    mask = np.arange(z_max)[None, :] < z[:, None]
    # Candidate sets re-use a handful of mode vectors; dedup by the exact
    # voltage tuple (first occurrence in row-major order), then solve the
    # distinct ones in one LRU-aware call.
    local: dict[tuple, int] = {}
    slots = [
        local.setdefault(volts, len(local))
        for volts in map(tuple, rows.volts[mask].tolist())
    ]
    if local:
        thetas = np.asarray(model.steady_state_many(list(local)))
        t_inf[mask] = thetas[slots]
    starts = np.concatenate(
        [np.zeros((k, 1)), np.cumsum(lengths, axis=1)[:, :-1]], axis=1
    ) if z_max else np.zeros((k, 0))

    # Eigenbasis steady states and per-interval diagonal propagators.
    g = t_inf @ model.eigen.w_inv.T
    decay = np.exp(lengths[:, :, None] * lam[None, None, :])

    # Affine part of one period from theta(0) = 0, then the eq.-(4) fixed
    # point: the monodromy is diagonal, so (I - K)^{-1} is a divide.
    y = np.zeros((k, n))
    for q in range(z_max):
        y = g[:, q] + decay[:, q] * (y - g[:, q])
    t_p = lengths.sum(axis=1)
    y0 = y / (1.0 - np.exp(t_p[:, None] * lam[None, :])) if k else y

    y_bound = np.empty((k, z_max + 1, n))
    y_bound[:, 0] = y0
    for q in range(z_max):
        y_bound[:, q + 1] = g[:, q] + decay[:, q] * (y_bound[:, q] - g[:, q])
    theta_bound = y_bound @ model.eigen.w.T

    return _Stack(
        z=z,
        lengths=lengths,
        starts=starts,
        mask=mask,
        t_inf=t_inf,
        g=g,
        decay=decay,
        y_bound=y_bound,
        theta_bound=theta_bound,
    )


def periodic_steady_state_batch(
    model: ThermalModel,
    schedules,
) -> list[PeriodicSolution]:
    """Solve the eq.-(4) stable status of K candidate schedules at once.

    Parameters
    ----------
    model:
        The shared thermal model (supplies the eigendecomposition).
    schedules:
        Iterable of :class:`~repro.schedule.periodic.PeriodicSchedule`
        candidates; interval counts may differ per candidate.

    Returns
    -------
    One :class:`~repro.thermal.periodic.PeriodicSolution` per input, in
    input order, matching :func:`repro.thermal.periodic.periodic_steady_state`
    to solver precision.  The cost is a handful of vectorized passes over
    a ``(K, max_z, n)`` tensor instead of K dense monodromy chains and K
    linear solves.
    """
    schedules = tuple(schedules)
    stack = _solve_stack(model, _stack_schedules(schedules))
    return [
        PeriodicSolution(
            schedule=sched,
            boundary_temperatures=stack.theta_bound[i, : stack.z[i] + 1].copy(),
        )
        for i, sched in enumerate(schedules)
    ]


def _grid_scan(
    stack: _Stack,
    model: ThermalModel,
    grid: int,
    chunk: slice,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense core-temperature grid over every interval of a K-chunk.

    Returns ``(times, temps)`` with shapes ``(k, Z, G)`` and
    ``(k, Z, G, C)`` — local sample instants per interval and the core
    temperatures there.  Padded intervals produce constant rows equal to
    the period-end state (harmless for maxima; callers mask them).
    """
    cores = model.network.core_nodes
    lam = model.eigen.eigenvalues
    w_cores = model.eigen.w[cores, :]
    n_grid = max(int(grid), 2)

    frac = np.linspace(0.0, 1.0, n_grid)
    lengths = stack.lengths[chunk]
    times = lengths[:, :, None] * frac[None, None, :]
    modal = stack.modal()[chunk]
    # (k, Z, G, n_modes) -> contract modes against the core rows of W.
    # Candidate rows share most interval lengths, so each distinct
    # length's samples are exponentiated once.
    uniq, inv = np.unique(lengths, return_inverse=True)
    phase = np.exp((uniq[:, None] * frac)[:, :, None] * lam)
    phase = phase[inv.reshape(lengths.shape)]
    temps = (phase * modal[:, :, None, :]) @ w_cores.T
    temps += stack.t_inf[chunk][:, :, None, cores]
    return times, temps


def _grid_chunks(stack: _Stack, model: ThermalModel, grid: int):
    """Yield ``(chunk_slice, times, temps)`` bounding peak memory."""
    per_k = max(stack.n_pad * max(int(grid), 2) * model.n_nodes, 1)
    step = max(1, GRID_CHUNK_ELEMENTS // per_k)
    for lo in range(0, stack.k, step):
        chunk = slice(lo, min(lo + step, stack.k))
        times, temps = _grid_scan(stack, model, grid, chunk)
        yield chunk, times, temps


def stepup_peak_rows(
    model: ThermalModel,
    rows: Rows,
    wrap_refine: bool = True,
    grid: int = 24,
) -> PeakRows:
    """Theorem-1 stable peaks of K step-up rows in one pass.

    Mirrors :func:`repro.thermal.peak.stepup_peak_temperature` row by
    row — period-end boundary temperatures plus the vectorized
    wrap-continuation grid — with the grid evaluated for the whole batch
    at once.  Rows are assumed step-up (not checked).
    """
    stack = _solve_stack(model, rows)
    cores = model.network.core_nodes
    k = stack.k

    end = stack.theta_bound[np.arange(k), stack.z, :][:, cores]
    core_peaks = end.copy()
    best_core = np.argmax(end, axis=1)
    best_val = end[np.arange(k), best_core]
    # Left-to-right period sums, as PeriodicSchedule.period adds them.
    best_time = np.cumsum(stack.lengths, axis=1)[:, -1] if k else np.zeros(0)

    if wrap_refine:
        for chunk, times, temps in _grid_chunks(stack, model, grid):
            masked = np.where(
                stack.mask[chunk][:, :, None, None], temps, -np.inf
            )
            np.maximum(
                core_peaks[chunk],
                masked.max(axis=(1, 2)),
                out=core_peaks[chunk],
            )
            kc, zc, gc, cc = masked.shape
            flat = masked.reshape(kc, -1)
            arg = np.argmax(flat, axis=1)
            vals = flat[np.arange(kc), arg]
            better = vals > best_val[chunk]
            if better.any():
                qi, gi, ci = np.unravel_index(arg, (zc, gc, cc))
                rows_c = np.arange(kc)
                when = stack.starts[chunk][rows_c, qi] + times[rows_c, qi, gi]
                sub = np.where(better)[0]
                base = chunk.start if chunk.start else 0
                best_val[base + sub] = vals[sub]
                best_core[base + sub] = ci[sub]
                best_time[base + sub] = when[sub]

    return PeakRows(
        value=best_val, core=best_core, time=best_time, core_peaks=core_peaks
    )


def stepup_peak_temperature_batch(
    model: ThermalModel,
    schedules,
    check: bool = True,
    wrap_refine: bool = True,
    grid: int = 24,
) -> list[PeakResult]:
    """Theorem-1 stable peaks of K step-up schedules in one pass.

    Stacks the schedules and calls :func:`stepup_peak_rows`.
    """
    schedules = tuple(schedules)
    if check:
        for sched in schedules:
            if not is_step_up(sched):
                raise ScheduleError(
                    "stepup_peak_temperature requires a step-up schedule; "
                    "use peak_temperature for arbitrary schedules"
                )
    if not schedules:
        return []
    return stepup_peak_rows(
        model, _stack_schedules(schedules), wrap_refine=wrap_refine, grid=grid
    ).results()


def _general_peak_rows(
    model: ThermalModel,
    rows: Rows,
    grid_per_interval: int,
    refine: bool,
) -> PeakRows:
    """Dense-grid + Brent extrema search of K arbitrary rows.

    Each interval's candidate is its dense-grid maximum (first in
    (sample, core) order).  With ``refine``, every core whose derivative
    changes sign around its own grid argmax is Brent-polished, in core
    order, and replaces the candidate only when strictly greater — as
    :meth:`repro.thermal.matex.IntervalSolution.peak` does.  A row's peak
    is its first interval of greatest candidate, which is what a scan of
    interval after interval keeping only strict improvements picks.
    """
    stack = _solve_stack(model, rows)
    cores = model.network.core_nodes
    lam = model.eigen.eigenvalues
    w_cores = model.eigen.w[cores, :]
    value = np.empty(stack.k)
    core = np.empty(stack.k, dtype=int)
    when = np.empty(stack.k)
    all_core_peaks = np.empty((stack.k, cores.shape[0]))

    for chunk, times, temps in _grid_chunks(stack, model, grid_per_interval):
        mask = stack.mask[chunk]
        kc, zc, gc, cc = temps.shape

        # Grid winner of every (row, interval) cell.
        flat = temps.reshape(kc, zc, -1)
        arg = flat.argmax(axis=2)  # (k, Z)
        gi, ci = np.unravel_index(arg, (gc, cc))
        val = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
        local = np.take_along_axis(times, gi[:, :, None], axis=2)[:, :, 0]

        if refine:
            # Bracket candidates: each core's own grid argmax and its
            # neighbours.
            j_star = np.argmax(temps, axis=2)  # (k, Z, C)
            t_lo = np.take_along_axis(times, np.maximum(j_star - 1, 0), axis=2)
            t_hi = np.take_along_axis(times, np.minimum(j_star + 1, gc - 1), axis=2)
            # Derivative of core c at time t:
            # sum_m (W[c, m] * modal_m) * lam_m * e^{lam_m t}.
            modal = stack.modal()[chunk]
            slope = w_cores[None, None, :, :] * modal[:, :, None, :] * lam
            d_lo = np.sum(slope * np.exp(lam * t_lo[..., None]), axis=3)
            d_hi = np.sum(slope * np.exp(lam * t_hi[..., None]), axis=3)
            needs_brent = (d_lo > 0) & (d_hi < 0) & (t_hi > t_lo) & mask[:, :, None]
            t_inf = stack.t_inf[chunk]
            for i, q, c in zip(*np.nonzero(needs_brent)):
                coeffs = w_cores[c] * modal[i, q]
                t_star = brentq(
                    lambda t: float(np.sum(slope[i, q, c] * np.exp(lam * t))),
                    t_lo[i, q, c],
                    t_hi[i, q, c],
                )
                peak = float(
                    t_inf[i, q, cores[c]] + np.sum(coeffs * np.exp(lam * t_star))
                )
                if peak > val[i, q]:
                    val[i, q], ci[i, q], local[i, q] = peak, c, t_star

        # Padding and NaN cells never win; no candidate leaves (-inf, 0, 0).
        cand = np.where(mask & (val > -np.inf), val, -np.inf)
        q_best = cand.argmax(axis=1)
        r = np.arange(kc)
        best = cand[r, q_best]
        found = best > -np.inf
        value[chunk] = best
        core[chunk] = np.where(found, ci[r, q_best], 0)
        when[chunk] = np.where(
            found, stack.starts[chunk][r, q_best] + local[r, q_best], 0.0
        )
        masked = np.where(mask[:, :, None, None], temps, -np.inf)
        all_core_peaks[chunk] = np.maximum(
            masked.max(axis=(1, 2)),
            value[chunk][:, None] * (np.arange(cc) == core[chunk][:, None]),
        )
    return PeakRows(value=value, core=core, time=when, core_peaks=all_core_peaks)


def peak_rows(
    model: ThermalModel,
    rows: Rows,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> PeakRows:
    """Stable-status peaks of K arbitrary rows in one vectorized pass.

    The row form of :func:`repro.thermal.peak.peak_temperature`: rows
    that are step-up take the Theorem-1 fast path (batched), the rest get
    the dense-grid + Brent extrema search with the grids for the whole
    batch evaluated at once.  Each subset is padded only to its own widest
    row.  Results land in input order.
    """
    k = rows.z.shape[0]
    fast = _stepup_mask(rows) if stepup_fast_path else np.zeros(k, dtype=bool)
    if fast.all():
        return stepup_peak_rows(model, rows)
    if not fast.any():
        return _general_peak_rows(model, rows, grid_per_interval, refine)

    n_cores = model.network.core_nodes.shape[0]
    out = PeakRows(
        value=np.empty(k),
        core=np.empty(k, dtype=int),
        time=np.empty(k),
        core_peaks=np.empty((k, n_cores)),
    )
    for idx, part in (
        (np.flatnonzero(fast), stepup_peak_rows(model, rows.take(fast))),
        (
            np.flatnonzero(~fast),
            _general_peak_rows(model, rows.take(~fast), grid_per_interval, refine),
        ),
    ):
        out.value[idx] = part.value
        out.core[idx] = part.core
        out.time[idx] = part.time
        out.core_peaks[idx] = part.core_peaks
    return out


def peak_temperature_batch(
    model: ThermalModel,
    schedules,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> list[PeakResult]:
    """Stable-status peaks of K arbitrary schedules in one vectorized pass.

    The batched counterpart of :func:`repro.thermal.peak.peak_temperature`:
    stacks the schedules and calls :func:`peak_rows`.
    """
    schedules = tuple(schedules)
    if not schedules:
        return []
    return peak_rows(
        model,
        _stack_schedules(schedules),
        grid_per_interval=grid_per_interval,
        refine=refine,
        stepup_fast_path=stepup_fast_path,
    ).results()
