"""Bit-exact parity of the stacked scalar peak kernels with their oracles.

:func:`repro.thermal.periodic.periodic_steady_state` computes each
interval's decay factors once for its three passes, and the peak searches
of :mod:`repro.thermal.peak` (and :meth:`IntervalSolution.peak`) evaluate
one stacked grid per schedule and vectorize the MatEx bracket test.  The
per-interval loops they replaced are kept below verbatim as the oracle.
Every answer must match with ``==`` — value, hottest core, time,
per-core peaks and boundary temperatures — and the engine counters must
move by the same amounts per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq

from repro import load_platform
from repro.errors import ScheduleError, ThermalModelError
from repro.platform import Platform
from repro.schedule.builders import (
    constant_schedule,
    random_schedule,
    random_stepup_schedule,
)
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.properties import is_step_up
from repro.schedule.transforms import shift_core
from repro.thermal import matex
from repro.thermal.batch import periodic_steady_state_batch
from repro.thermal.matex import interval_solution
from repro.thermal.model import ThermalModel
from repro.thermal.peak import PeakResult, peak_temperature, stepup_peak_temperature
from repro.thermal.periodic import periodic_steady_state, stable_trace
from repro.thermal.transient import TraceResult
from repro.util.linalg import solve_linear
from repro.util.validation import as_1d_float

# ----------------------------------------------------------------------
# oracles: the replaced implementations, verbatim
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OldIntervalSolution:
    t_inf: np.ndarray
    modal: np.ndarray
    lambdas: np.ndarray
    length: float

    def temperatures(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < -1e-12) or np.any(times > self.length + 1e-12):
            raise ThermalModelError(
                f"times outside interval [0, {self.length}]"
            )
        exp_matrix = np.exp(np.outer(times, self.lambdas))
        return self.t_inf[None, :] + exp_matrix @ self.modal.T

    def temperature_at(self, t: float) -> np.ndarray:
        return self.temperatures([t])[0]

    def derivative_at(self, t: float, node: int) -> float:
        return float(np.sum(self.modal[node] * self.lambdas * np.exp(self.lambdas * t)))

    def peak(
        self,
        nodes: np.ndarray | None = None,
        grid: int = 64,
        refine: bool = True,
    ) -> tuple[float, int, float]:
        if self.length <= 0:
            raise ThermalModelError(f"interval length must be > 0, got {self.length}")
        if nodes is None:
            nodes = np.arange(self.t_inf.shape[0])
        nodes = np.asarray(nodes, dtype=int)

        times = np.linspace(0.0, self.length, max(int(grid), 2))
        temps = self.temperatures(times)[:, nodes]  # (grid, len(nodes))

        flat = int(np.argmax(temps))
        ti, ni = np.unravel_index(flat, temps.shape)
        best_val = float(temps[ti, ni])
        best_node = int(nodes[ni])
        best_time = float(times[ti])

        if refine:
            # Refine every node near its own best grid point: a sign change of
            # the derivative between neighbouring samples brackets an extremum.
            for local, node in enumerate(nodes):
                col = temps[:, local]
                j = int(np.argmax(col))
                lo = times[max(j - 1, 0)]
                hi = times[min(j + 1, len(times) - 1)]
                if hi <= lo:
                    continue
                d_lo = self.derivative_at(lo, node)
                d_hi = self.derivative_at(hi, node)
                if d_lo > 0 and d_hi < 0:
                    t_star = brentq(lambda t: self.derivative_at(t, node), lo, hi)
                    val = float(self.temperature_at(t_star)[node])
                    if val > best_val:
                        best_val, best_node, best_time = val, int(node), float(t_star)
        return best_val, best_node, best_time


def old_interval_solution(model, theta0, voltages, length, t_inf=None):
    if length < 0:
        raise ThermalModelError(f"interval length must be >= 0, got {length}")
    theta0 = as_1d_float(theta0, "theta0", model.n_nodes)
    if t_inf is None:
        t_inf = model.steady_state(voltages)
    modal = model.eigen.modal_coefficients(theta0 - t_inf)
    return OldIntervalSolution(
        t_inf=t_inf,
        modal=modal,
        lambdas=model.eigen.eigenvalues,
        length=float(length),
    )


@dataclass(frozen=True)
class OldPeriodicSolution:
    schedule: PeriodicSchedule
    boundary_temperatures: np.ndarray
    steady_states: tuple | None = None

    @property
    def end_temperature(self) -> np.ndarray:
        return self.boundary_temperatures[-1]

    def interval_solutions(self, model):
        t_infs = self.steady_states or (None,) * self.schedule.n_intervals
        return [
            old_interval_solution(
                model, self.boundary_temperatures[q], volts, length, t_inf=t_inf
            )
            for q, ((length, volts), t_inf) in enumerate(
                zip(self.schedule.interval_rows(), t_infs)
            )
        ]


def old_periodic_steady_state(model, schedule):
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
    return OldPeriodicSolution(
        schedule=schedule, boundary_temperatures=boundaries, steady_states=t_infs
    )


def old_stable_trace(model, schedule, samples_per_interval=16):
    solution = old_periodic_steady_state(model, schedule)
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


def old_stepup_peak_temperature(model, schedule, check=True, wrap_refine=True, grid=24):
    if check and not is_step_up(schedule):
        raise ScheduleError(
            "stepup_peak_temperature requires a step-up schedule; "
            "use peak_temperature for arbitrary schedules"
        )
    solution = old_periodic_steady_state(model, schedule)
    cores = model.network.core_nodes
    end = solution.end_temperature[cores]
    core_peaks = end.copy()
    core_idx = int(np.argmax(end))
    best_val = float(end[core_idx])
    best_time = schedule.period

    if wrap_refine:
        t_base = 0.0
        for length, sol_q in zip(
            schedule.lengths.tolist(), solution.interval_solutions(model)
        ):
            times = np.linspace(0.0, length, max(grid, 2))
            temps = sol_q.temperatures(times)[:, cores]
            np.maximum(core_peaks, temps.max(axis=0), out=core_peaks)
            flat = int(np.argmax(temps))
            ti, ci = np.unravel_index(flat, temps.shape)
            if temps[ti, ci] > best_val:
                best_val = float(temps[ti, ci])
                core_idx = int(ci)
                best_time = float(t_base + times[ti])
            t_base += length

    return PeakResult(
        value=best_val,
        core=core_idx,
        time=best_time,
        core_peaks=core_peaks,
    )


def old_peak_temperature(
    model, schedule, grid_per_interval=64, refine=True, stepup_fast_path=True
):
    if stepup_fast_path and is_step_up(schedule):
        return old_stepup_peak_temperature(model, schedule, check=False)

    solution = old_periodic_steady_state(model, schedule)
    cores = model.network.core_nodes
    n_cores = cores.shape[0]

    core_peaks = np.full(n_cores, -np.inf)
    best = (-np.inf, 0, 0.0)
    t_base = 0.0
    for length, sol_q in zip(
        schedule.lengths.tolist(), solution.interval_solutions(model)
    ):
        # Track per-core maxima over the dense grid (vectorized), then the
        # refined global peak.
        times = np.linspace(0.0, length, max(grid_per_interval, 2))
        temps = sol_q.temperatures(times)[:, cores]
        core_peaks = np.maximum(core_peaks, temps.max(axis=0))
        val, node, when = sol_q.peak(nodes=cores, grid=grid_per_interval, refine=refine)
        if val > best[0]:
            core_local = int(np.where(cores == node)[0][0])
            best = (val, core_local, t_base + when)
        t_base += length

    core_peaks = np.maximum(core_peaks, best[0] * (np.arange(n_cores) == best[1]))
    return PeakResult(
        value=float(best[0]),
        core=int(best[1]),
        time=float(best[2]),
        core_peaks=core_peaks,
    )


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------

PLATFORMS = {
    "paper2": ("paper", {"n_cores": 2}),
    "paper3": ("paper", {"n_cores": 3}),
    "paper9": ("paper", {"n_cores": 9}),
    "big_little": ("big_little", {}),
    "stack3d": ("stack3d", {}),
    "tech-16-io": ("tech-16-io", {}),
}


@pytest.fixture(scope="module", params=sorted(PLATFORMS))
def platform(request) -> Platform:
    name, overrides = PLATFORMS[request.param]
    return load_platform(name, **overrides)


def _schedules(platform: Platform, seed: int, count: int = 6):
    """Seeded step-up, core-shifted and random schedules on the ladder."""
    rng = np.random.default_rng(seed)
    n_cores, levels = platform.model.n_cores, platform.ladder.levels
    for i in range(count):
        period = float(rng.choice([0.002, 0.02, 0.2, 2.0]))
        up = random_stepup_schedule(
            n_cores, rng, levels=levels, max_segments=1 + i % 4, period=period
        )
        yield up
        core = int(rng.integers(n_cores))
        yield shift_core(up, core, float(rng.uniform(0.05, 0.95)) * up.period)
        yield random_schedule(
            n_cores, rng, levels=levels, max_segments=3, period=period
        )


def _assert_peaks_equal(new: PeakResult, old: PeakResult) -> None:
    assert new.value == old.value
    assert new.core == old.core
    assert new.time == old.time
    assert np.array_equal(new.core_peaks, old.core_peaks)


def _counters(model: ThermalModel) -> tuple[int, int]:
    return model.ss_solves + model.ss_cache_hits, model.eigen.expm_applications


def _same_counts(model, run_new, run_old):
    """Run both, returning results; assert equal counter deltas."""
    before = _counters(model)
    new = run_new()
    mid = _counters(model)
    old = run_old()
    after = _counters(model)
    assert tuple(b - a for a, b in zip(before, mid)) == tuple(
        b - a for a, b in zip(mid, after)
    )
    return new, old


class TestSteadyState:
    def test_boundaries_bit_identical(self, platform):
        model = platform.model
        for s in _schedules(platform, seed=11):
            new, old = _same_counts(
                model,
                lambda: periodic_steady_state(model, s),
                lambda: old_periodic_steady_state(model, s),
            )
            assert np.array_equal(new.boundary_temperatures, old.boundary_temperatures)
            for a, b in zip(new.steady_states, old.steady_states):
                assert np.array_equal(a, b)

    def test_grid_matches_interval_solutions(self, platform):
        model = platform.model
        for s in _schedules(platform, seed=12, count=3):
            solution = periodic_steady_state(model, s)
            times, temps = solution.grid(model, 17)
            pieces = solution.interval_solutions(model)
            for q, piece in enumerate(pieces):
                assert np.array_equal(times[q], np.linspace(0.0, s.lengths[q], 17))
                assert np.array_equal(temps[q], piece.temperatures(times[q]))

    def test_batch_solution_grid_without_kept_coefficients(self, platform):
        model = platform.model
        # Solutions from the batch kernel carry neither steady states nor
        # coefficients; the grid looks both up and still matches.
        for s in _schedules(platform, seed=13, count=2):
            (solution,) = periodic_steady_state_batch(model, [s])
            times, temps = solution.grid(model, 9)
            old = OldPeriodicSolution(s, solution.boundary_temperatures)
            for q, piece in enumerate(old.interval_solutions(model)):
                assert np.array_equal(temps[q], piece.temperatures(times[q]))

    def test_chunked_grid(self, platform, monkeypatch):
        model = platform.model
        s = next(_schedules(platform, seed=15))
        solution = periodic_steady_state(model, s)
        whole = solution.grid(model, 24)
        # One interval per chunk.
        monkeypatch.setattr(matex, "GRID_CHUNK_ELEMENTS", 1)
        chunked = solution.grid(model, 24)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])

    def test_stable_trace(self, platform):
        model = platform.model
        for s in _schedules(platform, seed=14, count=2):
            new = stable_trace(model, s, samples_per_interval=16)
            old = old_stable_trace(model, s, samples_per_interval=16)
            assert np.array_equal(new.times, old.times)
            assert np.array_equal(new.temperatures, old.temperatures)
            assert np.array_equal(new.end_temperature, old.end_temperature)


class TestStepupPeak:
    @pytest.mark.parametrize("wrap_refine", [True, False])
    @pytest.mark.parametrize("grid", [2, 24])
    def test_bit_identical(self, platform, wrap_refine, grid):
        model = platform.model
        for s in _schedules(platform, seed=21):
            if not is_step_up(s):
                continue
            new, old = _same_counts(
                model,
                lambda: stepup_peak_temperature(
                    model, s, wrap_refine=wrap_refine, grid=grid
                ),
                lambda: old_stepup_peak_temperature(
                    model, s, wrap_refine=wrap_refine, grid=grid
                ),
            )
            _assert_peaks_equal(new, old)

    def test_unchecked_on_general_schedules(self, platform):
        model = platform.model
        for s in _schedules(platform, seed=22):
            _assert_peaks_equal(
                stepup_peak_temperature(model, s, check=False),
                old_stepup_peak_temperature(model, s, check=False),
            )

    def test_single_interval(self, platform):
        model = platform.model
        lo, hi = platform.ladder.levels[0], platform.ladder.levels[-1]
        volts = np.linspace(lo, hi, model.n_cores)
        s = constant_schedule(volts, period=0.01)
        _assert_peaks_equal(
            stepup_peak_temperature(model, s), old_stepup_peak_temperature(model, s)
        )

    def test_check_still_raises(self, platform):
        model = platform.model
        s = next(x for x in _schedules(platform, seed=23) if not is_step_up(x))
        with pytest.raises(ScheduleError):
            stepup_peak_temperature(model, s)


class TestGeneralPeak:
    @pytest.mark.parametrize(
        "grid, refine", [(64, True), (2, True), (16, False), (64, False)]
    )
    def test_bit_identical(self, platform, grid, refine):
        model = platform.model
        for s in _schedules(platform, seed=31):
            new, old = _same_counts(
                model,
                lambda: peak_temperature(
                    model, s, grid_per_interval=grid, refine=refine
                ),
                lambda: old_peak_temperature(
                    model, s, grid_per_interval=grid, refine=refine
                ),
            )
            _assert_peaks_equal(new, old)

    def test_certify_route(self, platform):
        model = platform.model
        # certify prices every schedule with the general search and the
        # step-up shortcut off.
        for s in _schedules(platform, seed=32):
            new, old = _same_counts(
                model,
                lambda: peak_temperature(
                    model, s, grid_per_interval=64, stepup_fast_path=False
                ),
                lambda: old_peak_temperature(
                    model, s, grid_per_interval=64, stepup_fast_path=False
                ),
            )
            _assert_peaks_equal(new, old)

    def test_single_interval(self, platform):
        model = platform.model
        lo, hi = platform.ladder.levels[0], platform.ladder.levels[-1]
        volts = np.linspace(hi, lo, model.n_cores)
        s = constant_schedule(volts, period=0.01)
        _assert_peaks_equal(
            peak_temperature(model, s, stepup_fast_path=False),
            old_peak_temperature(model, s, stepup_fast_path=False),
        )


class TestIntervalPeak:
    @pytest.mark.parametrize(
        "grid, refine", [(64, True), (8, True), (2, True), (16, False)]
    )
    def test_bit_identical(self, platform, grid, refine):
        model = platform.model
        rng = np.random.default_rng(41)
        cores = model.network.core_nodes
        for _ in range(8):
            theta0 = rng.uniform(0.0, 40.0, model.n_nodes)
            volts = rng.choice(platform.ladder.levels, model.n_cores)
            length = float(rng.choice([0.001, 0.01, 0.1]))
            new = interval_solution(model, theta0, volts, length)
            old = old_interval_solution(model, theta0, volts, length)
            for nodes in (None, cores):
                assert new.peak(nodes=nodes, grid=grid, refine=refine) == old.peak(
                    nodes=nodes, grid=grid, refine=refine
                )
