"""MatEx-style analytic transient solution within one state interval.

Pagani et al. [28] ("MatEx", DATE'15) observed that for the compact model
the transient inside an interval of constant power has the closed form

``theta_i(t) = Tinf_i + sum_k R_ik * exp(lambda_k t)``

with real negative ``lambda_k`` — so temperatures (and their extrema) can
be computed analytically instead of by numerical integration.  This module
implements that method on top of the cached eigendecomposition:

* :func:`interval_solution` builds the modal coefficients once per interval,
* :func:`stacked_temperatures` evaluates a dense sample grid over a stack
  of intervals in one batched product,
* :func:`stacked_peak` finds the maximum over such a stack: the grid's
  best sample plus Brent refinement of every (interval, node) whose
  derivative changes sign around that node's best sample.
  :meth:`IntervalSolution.peak` is its one-interval case.

The stacked forms repeat the one-interval arithmetic operation for
operation (numpy evaluates a stacked matmul slice by slice), so a stack
of z intervals gives bit for bit what z separate
:class:`IntervalSolution` evaluations give;
``tests/test_scalar_peak_parity.py`` holds them to that.

This is the engine behind peak identification for *arbitrary* schedules
(the expensive case the step-up concept avoids; see
:mod:`repro.thermal.peak`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ThermalModelError
from repro.thermal.model import ThermalModel
from repro.tolerances import MIN_INTERVAL
from repro.util.roots import brentq
from repro.util.validation import as_1d_float

__all__ = ["IntervalSolution", "interval_solution", "interval_peak"]

#: Default number of dense samples per interval when hunting extrema.
DEFAULT_GRID = 64

#: Upper bound on the elements of one dense grid tensor; larger stacks are
#: evaluated in chunks to bound peak memory (~64 MB).
GRID_CHUNK_ELEMENTS = 8_000_000


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
        if np.any(times < -MIN_INTERVAL) or np.any(times > self.length + MIN_INTERVAL):
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
        return _derivative(t, self.modal[node], self.lambdas)

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
        value, k, _, when = stacked_peak(
            self.t_inf[None],
            self.modal[None],
            self.lambdas,
            times[None],
            temps[None],
            nodes,
            refine=refine,
        )
        return value, int(nodes[k]), when


def _derivative(t: float, row: np.ndarray, lambdas: np.ndarray) -> float:
    """``sum_k row[k] * lambdas[k] * exp(lambdas[k] t)``: one node's slope."""
    return float(np.sum(row * lambdas * np.exp(lambdas * t)))


def stacked_temperatures(
    t_inf: np.ndarray,
    modal: np.ndarray,
    lambdas: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Node temperatures of z stacked intervals at per-interval sample times.

    ``t_inf`` is ``(z, n)``, ``modal`` ``(z, n, n)`` and ``times``
    ``(z, G)``; returns ``(z, G, n)``.  Slice ``q`` equals
    :meth:`IntervalSolution.temperatures` of interval ``q`` at
    ``times[q]``: the same products, one batched matmul instead of z.
    Stacks larger than :data:`GRID_CHUNK_ELEMENTS` go in chunks.
    """
    z, n_grid = times.shape
    n = modal.shape[1]
    out = np.empty((z, n_grid, n))
    step = max(1, GRID_CHUNK_ELEMENTS // max(n_grid * n, 1))
    for lo in range(0, z, step):
        part = slice(lo, lo + step)
        phase = np.exp(times[part, :, None] * lambdas)
        np.add(
            t_inf[part, None, :],
            phase @ modal[part].transpose(0, 2, 1),
            out=out[part],
        )
    return out


def stacked_peak(
    t_inf: np.ndarray,
    modal: np.ndarray,
    lambdas: np.ndarray,
    times: np.ndarray,
    temps: np.ndarray,
    nodes: np.ndarray,
    refine: bool = True,
) -> tuple[float, int, int, float]:
    """Maximum over a stack of intervals among ``nodes``.

    ``temps`` is the ``(z, G, len(nodes))`` grid of
    :func:`stacked_temperatures` at ``times``, restricted to ``nodes``.
    The candidates are, interval by interval, the grid's best sample
    (first in (sample, node) order) followed by the Brent-refined
    stationary point of each node whose derivative is positive one sample
    before its own best sample and negative one after.  The first
    candidate of greatest value wins, which is what scanning them in that
    order and keeping strict improvements picks.

    Returns
    -------
    (value, k, q, time)
        The peak, the position in ``nodes`` of the node attaining it, its
        interval and the time within that interval.
    """
    q, ti, k = np.unravel_index(int(np.argmax(temps)), temps.shape)
    # The winner so far and its place in the candidate order: (q, 0) is
    # interval q's grid best, (q, 1 + k) node k's refinement there.
    best = (float(temps[q, ti, k]), (int(q), 0), int(k), float(times[q, ti]))

    if refine:
        z, n_grid, _ = temps.shape
        rows = np.arange(z)[:, None]
        j = temps.argmax(axis=1)  # (z, len(nodes)): each node's own best sample
        lo = times[rows, np.maximum(j - 1, 0)]
        hi = times[rows, np.minimum(j + 1, n_grid - 1)]
        # IntervalSolution.derivative_at for every (interval, node) pair.
        slope = modal[:, nodes, :] * lambdas
        d_lo = np.sum(slope * np.exp(lambdas * lo[..., None]), axis=-1)
        d_hi = np.sum(slope * np.exp(lambdas * hi[..., None]), axis=-1)
        bracketed = (hi > lo) & (d_lo > 0) & (d_hi < 0)
        for q, k in zip(*np.nonzero(bracketed)):
            q, k = int(q), int(k)
            node = nodes[k]
            t_star = brentq(
                _derivative, lo[q, k], hi[q, k], args=(modal[q, node], lambdas)
            )
            # IntervalSolution.temperature_at(t_star)[node]
            phase = np.exp(np.outer([t_star], lambdas))
            val = float((t_inf[q][None, :] + phase @ modal[q].T)[0, node])
            if val > best[0] or (val == best[0] and (q, k + 1) < best[1]):
                best = (val, (q, k + 1), k, float(t_star))
    value, (q, _), k, when = best
    return value, k, q, when


def interval_solution(
    model: ThermalModel,
    theta0: np.ndarray,
    voltages,
    length: float,
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
    """
    if length < 0:
        raise ThermalModelError(f"interval length must be >= 0, got {length}")
    theta0 = as_1d_float(theta0, "theta0", model.n_nodes)
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
) -> tuple[float, int, float]:
    """Peak temperature within one interval (convenience wrapper).

    Returns ``(value, node, time)``; with ``cores_only`` the search is
    restricted to core nodes (the constraint in Problem 1 is on cores).
    """
    sol = interval_solution(model, theta0, voltages, length)
    nodes = model.network.core_nodes if cores_only else None
    return sol.peak(nodes=nodes)
