"""The linear thermal model of eq. (2): ``dT/dt = A T + B(v)``.

:class:`ThermalModel` binds an :class:`~repro.thermal.rc.RCNetwork` to a
:class:`~repro.power.model.PowerModel`:

* the leakage feedback ``beta * theta`` on core nodes is folded into the
  system matrix — ``A = -C^{-1} (G - E_beta)`` stays constant across
  running modes exactly as the paper assumes,
* ``B(v) = C^{-1} Psi(v)`` changes per state interval with the voltage
  vector.

Construction verifies that ``G - E_beta`` remains positive definite;
otherwise leakage self-heating has no bounded fixed point and
:class:`~repro.errors.ThermalRunawayError` is raised.

All temperatures are *normalized to ambient* (theta, in K above ambient).
Use :meth:`ThermalModel.to_celsius` for display.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

import numpy as np
import scipy.linalg

from repro.errors import ThermalModelError, ThermalRunawayError
from repro.power.model import PowerModel
from repro.thermal.rc import RCNetwork
from repro.util.eigcache import shared_eigen
from repro.util.linalg import EigenExpm, is_positive_definite, solve_linear
from repro.util.validation import as_1d_float

__all__ = ["ThermalModel"]


class ThermalModel:
    """Constant-A linear thermal model of a multi-core platform.

    Parameters
    ----------
    network:
        The assembled RC network (cores + spreaders + sink).
    power:
        The per-core power model supplying ``psi(v)`` and ``beta``.
    t_ambient_c:
        Ambient temperature in Celsius, used only for unit conversion
        (the paper uses 35 C).
    """

    def __init__(
        self,
        network: RCNetwork,
        power: PowerModel,
        t_ambient_c: float = 35.0,
    ) -> None:
        self.network = network
        self.power = power
        self.t_ambient_c = float(t_ambient_c)

        g = network.conductance.copy()
        core = network.core_nodes
        g[core, core] -= power.beta
        if not is_positive_definite(g):
            raise ThermalRunawayError(
                f"leakage feedback beta={power.beta} destabilizes the network: "
                "G - E_beta is not positive definite"
            )
        #: Effective conductance with leakage folded in (symmetric, PD).
        self.g_eff = g
        self.c_diag = network.capacitance
        #: System matrix A of eq. (2).
        self.a = -g / self.c_diag[:, None]
        # Steady-state solves share one Cholesky factorization of G - E_beta,
        # and results are memoized per voltage vector (LRU): the algorithm
        # inner loops re-evaluate the same handful of mode vectors thousands
        # of times, and long optimizer runs must not lose the whole working
        # set when the cache fills.
        self._g_cho = scipy.linalg.cho_factor(self.g_eff)
        self._ss_cache: OrderedDict[tuple[float, ...], np.ndarray] = OrderedDict()
        #: Instrumentation: steady-state Cholesky solves (cache misses).
        self.ss_solves = 0
        #: Instrumentation: steady-state requests served from the LRU.
        self.ss_cache_hits = 0
        #: Instrumentation: voltage rows resolved via :meth:`steady_state_batch`.
        self.ss_batch_rows = 0
        #: Instrumentation: eigendecompositions served by the shared cache.
        self.eig_cache_hits = 0
        #: Instrumentation: eigendecompositions computed from scratch.
        self.eig_cache_misses = 0

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return self.network.n_cores

    @property
    def n_nodes(self) -> int:
        """Number of thermal nodes."""
        return self.network.n_nodes

    @cached_property
    def eigen(self) -> EigenExpm:
        """Cached eigendecomposition of ``A`` (real negative spectrum).

        Resolved through the process-wide content-keyed eigenbasis memo
        (:mod:`repro.util.eigcache`): models built for bitwise-identical
        system matrices — e.g. sharded-runner units sweeping ``t_max`` or
        power levels on one floorplan — reuse the factors instead of
        re-running the O(n^3) decomposition.  Counters distinguish memo
        hits from fresh decompositions.
        """
        eigen, origin = shared_eigen(self.a, c_diag=self.c_diag)
        if origin == "miss":
            self.eig_cache_misses += 1
        else:
            self.eig_cache_hits += 1
        return eigen

    @cached_property
    def core_response(self) -> np.ndarray:
        """Steady core temperatures per watt injected at each core, ``(n, n)``.

        Column ``i`` is the core block of ``(G - E_beta)^{-1} e_i``: the
        steady state when core ``i`` injects 1 W and no other node
        injects anything.  It takes one Cholesky solve of the ``n`` unit
        injections, made on first use.  The steady state is linear in the
        injection, so ``core_response @ psi(v)`` is ``theta_cores(v)``
        up to rounding.  Every entry is ``>= 0``, because ``G - E_beta``
        is a nonsingular M-matrix.
        """
        core = self.network.core_nodes
        unit = np.zeros((self.n_nodes, self.n_cores))
        unit[core, np.arange(self.n_cores)] = 1.0
        return scipy.linalg.cho_solve(self._g_cho, unit)[core, :]

    @cached_property
    def slowest_time_constant(self) -> float:
        """``1 / |lambda_max|`` — the dominant thermal time constant in s."""
        return float(1.0 / np.abs(self.eigen.eigenvalues).min())

    # ------------------------------------------------------------------
    # power / forcing terms
    # ------------------------------------------------------------------

    def injection(self, voltages) -> np.ndarray:
        """Node-level heat injection ``Psi(v)`` (W) for a core voltage vector."""
        v = as_1d_float(voltages, "voltages", self.n_cores)
        psi = np.zeros(self.n_nodes)
        psi[self.network.core_nodes] = np.asarray(self.power.psi(v))
        return psi

    def b_vector(self, voltages) -> np.ndarray:
        """``B(v) = C^{-1} Psi(v)`` of eq. (2)."""
        return self.injection(voltages) / self.c_diag

    # ------------------------------------------------------------------
    # steady state / propagation
    # ------------------------------------------------------------------

    #: Capacity of the per-voltage steady-state LRU cache.
    SS_CACHE_SIZE = 4096

    def steady_state(self, voltages) -> np.ndarray:
        """``T_inf(v) = -A^{-1} B(v)``: solve ``(G - E_beta) theta = Psi(v)``.

        Returns node temperatures above ambient (K).  Results are memoized
        in an LRU keyed by the rounded voltage vector: a hit moves the
        entry to the back, and at capacity the least recently used entry is
        evicted, so the handful of mode vectors an optimizer re-evaluates
        survives arbitrarily long runs.
        """
        key = tuple(np.round(np.atleast_1d(np.asarray(voltages, dtype=float)), 12))
        cached = self._ss_cache.get(key)
        if cached is not None:
            self.ss_cache_hits += 1
            self._ss_cache.move_to_end(key)
            return cached
        self.ss_solves += 1
        theta = scipy.linalg.cho_solve(self._g_cho, self.injection(voltages))
        if len(self._ss_cache) >= self.SS_CACHE_SIZE:
            self._ss_cache.popitem(last=False)
        self._ss_cache[key] = theta
        return theta

    def steady_state_cores(self, voltages) -> np.ndarray:
        """Steady-state temperatures of the core nodes only."""
        return self.steady_state(voltages)[self.network.core_nodes]

    def steady_state_batch(self, voltage_matrix: np.ndarray) -> np.ndarray:
        """Steady-state *core* temperatures for a batch of voltage vectors.

        Parameters
        ----------
        voltage_matrix:
            ``(batch, n_cores)`` supply voltages.

        Returns
        -------
        ``(batch, n_cores)`` core temperatures above ambient.  One shared
        Cholesky solve for the whole batch — this is the hot path of the
        exhaustive search (Algorithm 1).
        """
        volts = np.asarray(voltage_matrix, dtype=float)
        if volts.ndim != 2 or volts.shape[1] != self.n_cores:
            raise ThermalModelError(
                f"voltage_matrix must be (batch, {self.n_cores}), got {volts.shape}"
            )
        self.ss_batch_rows += volts.shape[0]
        psi = np.asarray(self.power.psi(volts))
        rhs = np.zeros((self.n_nodes, volts.shape[0]))
        rhs[self.network.core_nodes, :] = psi.T
        theta = scipy.linalg.cho_solve(self._g_cho, rhs)
        return theta[self.network.core_nodes, :].T

    def steady_state_many(self, voltage_list) -> list[np.ndarray]:
        """Full-node steady states for many voltage vectors at once.

        The LRU-aware batch form of :meth:`steady_state` (which returns
        all nodes, unlike :meth:`steady_state_batch`), with the same
        results, counters and cache order as calling :meth:`steady_state`
        on each vector in turn: the first occurrence of an uncached vector
        is a solve and later ones are hits.  The keys come from one
        rounding of the whole ``(K, n_cores)`` block, and the solves
        share a single Cholesky solve.  This is the steady-state path of
        :func:`~repro.thermal.periodic.periodic_steady_state` and of the
        batch kernels (:mod:`repro.thermal.batch`).
        """
        volts = np.asarray(voltage_list, dtype=float)
        if not volts.size:
            return []
        volts = volts.reshape(volts.shape[0], -1)
        cache = self._ss_cache
        out: list = []
        # A vector first seen in this call holds its index in ``solve`` as
        # its cache value until the shared solve below fills it in.
        solve: list[int] = []
        keys: list[tuple] = []
        for i, key in enumerate(map(tuple, np.round(volts, 12).tolist())):
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                out.append(cached)
                continue
            if len(cache) >= self.SS_CACHE_SIZE:
                cache.popitem(last=False)
            cache[key] = len(solve)
            out.append(len(solve))
            solve.append(i)
            keys.append(key)
        self.ss_cache_hits += len(out) - len(solve)
        if not solve:
            return out

        def pending(j: int, key: tuple) -> bool:
            value = cache.get(key)
            return type(value) is int and value == j

        try:
            psi = np.asarray(self.power.psi(volts[solve]))
            rhs = np.zeros((self.n_nodes, len(solve)))
            rhs[self.network.core_nodes, :] = psi.T
            fresh = list(scipy.linalg.cho_solve(self._g_cho, rhs).T.copy())
        except BaseException:
            for j, key in enumerate(keys):
                if pending(j, key):
                    del cache[key]
            raise
        self.ss_solves += len(solve)
        for j, key in enumerate(keys):
            if pending(j, key):
                cache[key] = fresh[j]
        return [fresh[x] if type(x) is int else x for x in out]

    def propagate(self, theta0: np.ndarray, dt: float, voltages) -> np.ndarray:
        """Advance eq. (3) by ``dt`` seconds under constant voltages.

        ``theta(t0+dt) = T_inf + expm(A dt) (theta0 - T_inf)``.
        """
        if dt < 0:
            raise ThermalModelError(f"dt must be >= 0, got {dt}")
        theta0 = as_1d_float(theta0, "theta0", self.n_nodes)
        t_inf = self.steady_state(voltages)
        return t_inf + self.eigen.apply_expm(dt, theta0 - t_inf)

    def required_injection_for(self, core_theta: np.ndarray) -> np.ndarray:
        """Inverse steady-state problem: pin core temperatures, get powers.

        Given target core temperatures ``core_theta`` (K above ambient),
        solve the steady network for the non-core node temperatures (which
        carry no injection) and return the per-core heat injection ``q``
        (W) each core must produce so the pinned state is an equilibrium:

        ``q = (G - E_beta)[cores, :] @ theta_full``.

        This is the starting point of the continuous relaxation in
        section V (stable state pinned at ``T_max``).
        """
        core_theta = as_1d_float(core_theta, "core_theta", self.n_cores)
        core = self.network.core_nodes
        other = np.setdiff1d(np.arange(self.n_nodes), core)

        g = self.g_eff
        # Non-core rows have zero injection:  G_oo theta_o + G_oc theta_c = 0
        theta_other = solve_linear(g[np.ix_(other, other)], -g[np.ix_(other, core)] @ core_theta)
        theta_full = np.empty(self.n_nodes)
        theta_full[core] = core_theta
        theta_full[other] = theta_other

        q = g[core, :] @ theta_full
        return q

    # ------------------------------------------------------------------
    # unit helpers
    # ------------------------------------------------------------------

    def to_celsius(self, theta) -> np.ndarray:
        """Convert normalized temperatures (K above ambient) to Celsius."""
        return np.asarray(theta, dtype=float) + self.t_ambient_c

    def from_celsius(self, temp_c) -> np.ndarray:
        """Convert Celsius to normalized temperatures."""
        return np.asarray(temp_c, dtype=float) - self.t_ambient_c

    def threshold_theta(self, t_max_c: float) -> float:
        """Peak-temperature threshold in normalized units."""
        theta = float(t_max_c) - self.t_ambient_c
        if theta <= 0:
            raise ThermalModelError(
                f"T_max={t_max_c} C is not above ambient {self.t_ambient_c} C"
            )
        return theta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ThermalModel({self.network.floorplan.describe()}, "
            f"beta={self.power.beta}, t_amb={self.t_ambient_c} C)"
        )
