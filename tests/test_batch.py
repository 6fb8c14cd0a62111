"""Vectorized thermal kernels vs the scalar paths, to 1e-9.

One parity suite for :mod:`repro.thermal.batch` (K schedules on one
model) and :mod:`repro.thermal.grid` (rows across platforms, one batch
call per distinct model), plus the batch-adjacent caches and the
optimizers rewired onto the batch kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.thermal.batch as batch_mod
import repro.thermal.grid as grid_mod

from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.oscillation import (
    ModePlan,
    adjusted_high_ratios,
    build_oscillating_schedule,
    choose_m,
    oscillating_rows,
    plan_modes,
)
from repro.algorithms.tpt import enforce_threshold, fill_headroom
from repro.engine import ThermalEngine
from repro.errors import ScheduleError, SolverError
from repro.floorplan import paper_floorplan
from repro.platform import Platform, paper_platform, platform_3d
from repro.power import TransitionOverhead, big_little_power_model, paper_ladder
from repro.schedule.builders import (
    constant_schedule,
    random_schedule,
    random_stepup_schedule,
)
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.properties import is_step_up
from repro.schedule.transforms import shift_core
from repro.thermal.batch import (
    PeakRows,
    peak_rows,
    peak_temperature_batch,
    periodic_steady_state_batch,
    stack_rows,
    stepup_peak_rows,
    stepup_peak_temperature_batch,
)
from repro.thermal.grid import (
    peak_temperature_grid,
    periodic_steady_state_grid,
    stepup_peak_temperature_grid,
)
from repro.thermal.model import ThermalModel
from repro.thermal.peak import (
    peak_temperature,
    stepup_peak_temperature,
)
from repro.thermal.periodic import periodic_steady_state
from repro.thermal.rc import build_single_layer_network

PARITY = 1e-9


def mixed_candidates(n_cores, rng, count=24):
    """Randomized candidate set: step-up and arbitrary, varying z."""
    scheds = []
    for i in range(count):
        segments = int(rng.integers(1, 6))
        if i % 2 == 0:
            s = random_stepup_schedule(
                n_cores, rng, max_segments=segments, period=0.02
            )
        else:
            s = random_schedule(n_cores, rng, max_segments=segments, period=0.02)
        scheds.append(s)
    return scheds


def wrap_distance(t_a: float, t_b: float, period: float) -> float:
    """Distance between two instants on the periodic circle.

    In stable status t = 0 and t = period are the same instant, so peak
    times are compared modulo the period.
    """
    d = abs(t_a - t_b) % period
    return min(d, period - d)


def _big_little_platform(n_cores=6, t_max_c=55.0):
    fp = paper_floorplan(n_cores)
    pm = big_little_power_model(big_cores=list(range(n_cores // 2)), n_cores=n_cores)
    model = ThermalModel(build_single_layer_network(fp), pm)
    return Platform(
        model=model,
        ladder=paper_ladder(2),
        overhead=TransitionOverhead(),
        t_max_c=t_max_c,
    )


@pytest.fixture(scope="module")
def hetero_models():
    """Heterogeneous platform mix: core counts, power models, topology."""
    return [
        paper_platform(2, n_levels=2, t_max_c=65.0).model,
        paper_platform(3, n_levels=3, t_max_c=55.0).model,
        _big_little_platform().model,
        platform_3d(2, 2, 2, n_levels=2, t_max_c=60.0).model,
    ]


def _mixed_rows(models, rng, per_model=6, stepup_only=False):
    rows = []
    for model in models:
        for i in range(per_model):
            segments = int(rng.integers(1, 6))
            if stepup_only or i % 2 == 0:
                s = random_stepup_schedule(
                    model.n_cores, rng, max_segments=segments, period=0.02
                )
            else:
                s = random_schedule(
                    model.n_cores, rng, max_segments=segments, period=0.02
                )
            rows.append((model, s))
    return rows


class TestSteadyStateBatch:
    def test_randomized_parity(self, model3, rng):
        scheds = mixed_candidates(3, rng)
        batch = periodic_steady_state_batch(model3, scheds)
        assert len(batch) == len(scheds)
        for s, b in zip(scheds, batch):
            scalar = periodic_steady_state(model3, s)
            assert b.schedule is s
            np.testing.assert_allclose(
                b.boundary_temperatures,
                scalar.boundary_temperatures,
                atol=PARITY,
                rtol=0,
            )

    def test_k1(self, model3, rng):
        s = random_schedule(3, rng, period=0.03)
        (b,) = periodic_steady_state_batch(model3, [s])
        scalar = periodic_steady_state(model3, s)
        np.testing.assert_allclose(
            b.boundary_temperatures, scalar.boundary_temperatures, atol=PARITY
        )

    def test_empty_batch(self, model3):
        assert periodic_steady_state_batch(model3, []) == []


class TestPeakBatch:
    def test_randomized_parity(self, model3, rng):
        scheds = mixed_candidates(3, rng)
        batch = peak_temperature_batch(model3, scheds)
        for s, b in zip(scheds, batch):
            scalar = peak_temperature(model3, s)
            assert b.value == pytest.approx(scalar.value, abs=PARITY)
            assert b.core == scalar.core
            assert wrap_distance(b.time, scalar.time, s.period) < PARITY
            np.testing.assert_allclose(
                b.core_peaks, scalar.core_peaks, atol=PARITY, rtol=0
            )

    def test_stepup_randomized_parity(self, model3, rng):
        scheds = [
            random_stepup_schedule(3, rng, max_segments=1 + i % 5, period=0.02)
            for i in range(20)
        ]
        batch = stepup_peak_temperature_batch(model3, scheds)
        for s, b in zip(scheds, batch):
            scalar = stepup_peak_temperature(model3, s)
            assert b.value == pytest.approx(scalar.value, abs=PARITY)
            assert b.core == scalar.core
            assert wrap_distance(b.time, scalar.time, s.period) < PARITY
            np.testing.assert_allclose(
                b.core_peaks, scalar.core_peaks, atol=PARITY, rtol=0
            )

    def test_k1(self, model3, rng):
        s = random_stepup_schedule(3, rng, period=0.02)
        (b,) = peak_temperature_batch(model3, [s])
        scalar = peak_temperature(model3, s)
        assert b.value == pytest.approx(scalar.value, abs=PARITY)
        np.testing.assert_allclose(b.core_peaks, scalar.core_peaks, atol=PARITY)

    def test_empty_batch(self, model3):
        assert peak_temperature_batch(model3, []) == []
        assert stepup_peak_temperature_batch(model3, []) == []

    def test_stepup_check_rejects_arbitrary(self, model3, rng):
        for _ in range(20):
            s = random_schedule(3, rng, period=0.02)
            from repro.schedule.properties import is_step_up

            if not is_step_up(s):
                break
        with pytest.raises(ScheduleError):
            stepup_peak_temperature_batch(model3, [s])

    def test_order_preserved_in_mixed_batch(self, model3, rng):
        # Step-up and general candidates go down different code paths but
        # must land back at their input positions.
        scheds = mixed_candidates(3, rng, count=10)
        batch = peak_temperature_batch(model3, scheds)
        for s, b in zip(scheds, batch):
            assert b.value == pytest.approx(
                peak_temperature(model3, s).value, abs=PARITY
            )

    def test_constant_schedules(self, model3):
        volts = [[0.6, 0.8, 1.0], [1.3, 1.3, 1.3], [1.0, 0.6, 1.2]]
        scheds = [constant_schedule(v, period=0.02) for v in volts]
        batch = peak_temperature_batch(model3, scheds)
        for v, b in zip(volts, batch):
            assert b.value == pytest.approx(
                model3.steady_state_cores(v).max(), abs=PARITY
            )


class TestGridParity:
    def test_steady_state_grid(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng)
        grid = periodic_steady_state_grid(rows)
        for (model, sched), sol in zip(rows, grid):
            check = periodic_steady_state(model, sched)
            np.testing.assert_allclose(
                sol.boundary_temperatures,
                check.boundary_temperatures,
                atol=PARITY,
            )

    def test_stepup_grid(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng, stepup_only=True)
        grid = stepup_peak_temperature_grid(rows, check=False)
        for (model, sched), res in zip(rows, grid):
            check = stepup_peak_temperature(model, sched, check=False)
            assert res.value == pytest.approx(check.value, abs=PARITY)
            np.testing.assert_allclose(
                res.core_peaks, check.core_peaks, atol=PARITY
            )

    def test_general_grid(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng)
        grid = peak_temperature_grid(rows)
        for (model, sched), res in zip(rows, grid):
            check = peak_temperature(model, sched)
            assert res.value == pytest.approx(check.value, abs=PARITY)
            np.testing.assert_allclose(
                res.core_peaks, check.core_peaks, atol=PARITY
            )

    def test_general_grid_no_fast_path(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng, per_model=3)
        grid = peak_temperature_grid(rows, stepup_fast_path=False)
        for (model, sched), res in zip(rows, grid):
            check = peak_temperature(model, sched, stepup_fast_path=False)
            assert res.value == pytest.approx(check.value, abs=PARITY)

    def test_padded_interval_edges(self, hetero_models, rng):
        """Rows with wildly different interval counts pad correctly."""
        m_small, m_large = hetero_models[0], hetero_models[-1]
        rows = [
            (m_small, constant_schedule([1.0, 1.0], period=0.02)),
            (m_large, random_schedule(m_large.n_cores, rng, max_segments=8)),
            (m_small, random_stepup_schedule(2, rng, max_segments=1)),
        ]
        grid = peak_temperature_grid(rows)
        for (model, sched), res in zip(rows, grid):
            check = peak_temperature(model, sched)
            assert res.value == pytest.approx(check.value, abs=PARITY)

    def test_single_row_and_empty(self, hetero_models, rng):
        model = hetero_models[1]
        sched = random_schedule(model.n_cores, rng)
        [res] = peak_temperature_grid([(model, sched)])
        assert res.value == pytest.approx(
            peak_temperature(model, sched).value, abs=PARITY
        )
        assert peak_temperature_grid([]) == []
        assert stepup_peak_temperature_grid([]) == []
        assert periodic_steady_state_grid([]) == []

    @settings(max_examples=15, deadline=None)
    @given(perm_seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_platform_axis_permutation_invariance(
        self, hetero_models, perm_seed
    ):
        """Row order (hence platform stacking order) never changes results."""
        rng = np.random.default_rng(7)
        rows = _mixed_rows(hetero_models, rng, per_model=3)
        base = peak_temperature_grid(rows)
        perm = np.random.default_rng(perm_seed).permutation(len(rows))
        shuffled = peak_temperature_grid([rows[i] for i in perm])
        for k, i in enumerate(perm):
            assert shuffled[k].value == base[i].value
            assert shuffled[k].core == base[i].core


class TestGridIsPerModelBatch:
    """A grid call is one batch call per distinct model, bit for bit."""

    @pytest.mark.parametrize(
        "grid_fn, batch_name, kwargs",
        [
            (periodic_steady_state_grid, "periodic_steady_state_batch", {}),
            (stepup_peak_temperature_grid, "stepup_peak_temperature_batch",
             {"check": False}),
            (peak_temperature_grid, "peak_temperature_batch", {}),
        ],
        ids=["steady_state", "stepup", "peak"],
    )
    def test_grid_equals_per_model_batch(
        self, hetero_models, rng, monkeypatch, grid_fn, batch_name, kwargs
    ):
        stepup_only = batch_name == "stepup_peak_temperature_batch"
        rows = _mixed_rows(hetero_models, rng, per_model=3, stepup_only=stepup_only)
        # Interleave platforms so grouping and scatter-back both matter.
        rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]

        batch_fn = getattr(batch_mod, batch_name)
        calls = []

        def spy(model, schedules, **kw):
            calls.append(model)
            return batch_fn(model, schedules, **kw)

        monkeypatch.setattr(grid_mod, batch_name, spy)
        grid = grid_fn(rows, **kwargs)

        seen = list({id(m): m for m, _ in rows}.values())  # first-seen order
        assert [id(m) for m in calls] == [id(m) for m in seen]

        assert len(grid) == len(rows)
        for model in seen:
            idx = [i for i, (m, _) in enumerate(rows) if m is model]
            ref = batch_fn(model, [rows[i][1] for i in idx], **kwargs)
            for i, want in zip(idx, ref):
                got = grid[i]
                if batch_name == "periodic_steady_state_batch":
                    assert got.schedule is rows[i][1]
                    np.testing.assert_array_equal(
                        got.boundary_temperatures, want.boundary_temperatures
                    )
                    continue
                assert got.value == want.value
                assert got.core == want.core
                assert got.time == want.time
                np.testing.assert_array_equal(got.core_peaks, want.core_peaks)


class TestChunkBudget:
    def test_forced_chunking_parity(self, hetero_models, rng, monkeypatch):
        rows = _mixed_rows(hetero_models, rng, per_model=4)
        baseline = peak_temperature_grid(rows)
        monkeypatch.setattr(batch_mod, "GRID_CHUNK_ELEMENTS", 1000)
        chunked = peak_temperature_grid(rows)
        for a, b in zip(baseline, chunked):
            assert a.value == b.value
            assert a.core == b.core


class TestGeneralSearchTies:
    """The general search keeps the first of equal candidates."""

    @staticmethod
    def _rows(model3, rng):
        scheds = [
            s
            for s in mixed_candidates(3, rng, count=40)
            if s.n_intervals >= 3 and not is_step_up(s)
        ][:6]
        assert len(scheds) >= 2
        return stack_rows((s.lengths, s.voltage_matrix) for s in scheds)

    @staticmethod
    def _patched_grid(monkeypatch, edit):
        """Run ``edit(times, temps)`` on every chunk's dense grid first."""
        real = batch_mod._grid_chunks

        def chunks(stack, model, grid):
            for chunk, times, temps in real(stack, model, grid):
                edit(times, temps)
                yield chunk, times, temps

        monkeypatch.setattr(batch_mod, "_grid_chunks", chunks)

    @pytest.mark.parametrize("refine", [False, True])
    def test_equal_interval_maxima_keep_the_earlier(
        self, model3, rng, monkeypatch, refine
    ):
        rows = self._rows(model3, rng)
        top = float(peak_rows(model3, rows, stepup_fast_path=False).value.max()) + 1.0

        def edit(times, temps):
            temps[1, 0, 0, 0] = top
            temps[1, 2, 3, 1] = top

        self._patched_grid(monkeypatch, edit)
        got = peak_rows(model3, rows, refine=refine, stepup_fast_path=False)
        assert got.value[1] == top
        assert got.core[1] == 0
        assert got.time[1] == 0.0  # interval 0, sample 0
        assert got.core_peaks[1].tolist() == [top, top, got.core_peaks[1, 2]]

    def test_equal_brent_value_keeps_the_grid_winner(self, model3, rng, monkeypatch):
        rows = self._rows(model3, rng)
        grids = []
        self._patched_grid(monkeypatch, lambda *grid: grids.append(grid))
        plain = peak_rows(model3, rows, stepup_fast_path=False)
        (times, temps), = grids
        starts = np.zeros_like(rows.lengths)
        starts[:, 1:] = np.cumsum(rows.lengths, axis=1)[:, :-1]
        # A row whose peak is a Brent refinement, off the dense grid.
        for i in range(len(rows.z)):
            q = int(np.searchsorted(starts[i, : rows.z[i]], plain.time[i], "right")) - 1
            c = int(plain.core[i])
            j = int(np.argmax(temps[i, q, :, c]))
            if plain.time[i] != starts[i, q] + times[i, q, j]:
                break
        else:
            pytest.fail("no row's peak came from a Brent refinement")

        def edit(times_, temps_):
            # Lift that core's own grid argmax to the refined value: the
            # bracket and the Brent root stay the same, so the refinement
            # now only ties the grid winner.
            temps_[i, q, j, c] = plain.value[i]

        monkeypatch.undo()
        self._patched_grid(monkeypatch, edit)
        got = peak_rows(model3, rows, stepup_fast_path=False)
        assert got.value[i] == plain.value[i]
        assert got.core[i] == c
        assert got.time[i] == starts[i, q] + times[i, q, j]


class TestSteadyStateLRU:
    def test_eviction_keeps_recently_used(self, monkeypatch, model3):
        from repro.thermal.model import ThermalModel

        monkeypatch.setattr(ThermalModel, "SS_CACHE_SIZE", 3)
        model = ThermalModel(model3.network, model3.power)
        volts = [(v, v, v) for v in (0.6, 0.8, 1.0, 1.2)]
        for v in volts[:3]:
            model.steady_state(v)
        assert len(model._ss_cache) == 3
        model.steady_state(volts[0])  # refresh the oldest entry
        model.steady_state(volts[3])  # evicts volts[1], not volts[0]
        assert len(model._ss_cache) == 3
        before = len(model._ss_cache)
        model.steady_state(volts[0])  # still cached: no growth, same result
        assert len(model._ss_cache) == before
        np.testing.assert_array_equal(
            model.steady_state(volts[0]), model3.steady_state(volts[0])
        )


def _assert_rows_are(rows, schedules):
    """Rows hold exactly the schedules' arrays, zero-padded to the widest."""
    assert rows.lengths.shape[1] == max(s.n_intervals for s in schedules)
    for z, lengths, volts, sched in zip(*rows, schedules):
        assert z == sched.n_intervals
        assert lengths[:z].tobytes() == sched.lengths.tobytes()
        assert volts[:z].tobytes() == sched.voltage_matrix.tobytes()
        assert not lengths[z:].any()


def _assert_peaks_are(rows_peaks, results):
    assert rows_peaks.value.tolist() == [r.value for r in results]
    assert rows_peaks.core.tolist() == [r.core for r in results]
    assert rows_peaks.time.tolist() == [r.time for r in results]
    assert rows_peaks.core_peaks.tobytes() == np.array(
        [r.core_peaks for r in results]
    ).tobytes()


class TestRows:
    """Candidate rows vs the schedules they stand for, bit for bit."""

    PLAN = ModePlan(
        v_low=np.array([0.6, 0.8, 1.0, 0.8, 0.6, 0.6]),
        v_high=np.array([0.8, 1.0, 1.0, 1.3, 1.3, 1.0]),
        high_ratio=np.full(6, 0.5),
        target_voltages=np.full(6, 0.9),
    )

    def _ratios(self, rng, k=40):
        ratios = rng.random((k, 6))
        ratios[0] = 0.0
        ratios[1] = 1.0
        ratios[2] = 1 - 1e-13
        ratios[3] = [0.0, 1.0, 1 - 1e-13, 0.5, 1e-13, 0.25]
        ratios[4] = [1 - 1e-13, 0.3, 0.3, 0.0, 1.0, 0.3]
        return ratios

    def test_oscillating_rows_match_schedules(self, rng):
        ratios = self._ratios(rng)
        per_row = rng.integers(1, 30, size=len(ratios))
        for m in (per_row, 7):
            rows = oscillating_rows(self.PLAN, ratios, 0.02, m)
            _assert_rows_are(
                rows,
                [
                    build_oscillating_schedule(self.PLAN, r, 0.02, int(m_k))
                    for r, m_k in zip(ratios, np.broadcast_to(m, len(ratios)))
                ],
            )

    def test_oscillating_rows_reject_bad_input(self):
        with pytest.raises(ScheduleError):
            oscillating_rows(self.PLAN, np.full((2, 6), 1.5), 0.02, 1)
        with pytest.raises(SolverError):
            oscillating_rows(self.PLAN, np.full((2, 6), 0.5), 0.02, [1, 0])

    def test_stepup_rows_match_schedule_kernels(self, rng):
        model = paper_platform(6, n_levels=2, t_max_c=60.0).model
        ratios = self._ratios(rng, k=12)
        m = rng.integers(1, 12, size=len(ratios))
        rows = oscillating_rows(self.PLAN, ratios, 0.02, m)
        scheds = [
            build_oscillating_schedule(self.PLAN, r, 0.02, int(m_k))
            for r, m_k in zip(ratios, m)
        ]
        got = stepup_peak_rows(model, rows)
        _assert_peaks_are(got, stepup_peak_temperature_batch(model, scheds))
        for i, sched in enumerate(scheds):
            scalar = stepup_peak_temperature(model, sched)
            assert got.value[i] == pytest.approx(scalar.value, abs=PARITY)
            np.testing.assert_allclose(
                got.core_peaks[i], scalar.core_peaks, atol=PARITY, rtol=0
            )

    def test_peak_rows_match_schedule_kernels_on_shifted_sets(self, rng):
        model = paper_platform(6, n_levels=2, t_max_c=60.0).model
        ratios = self._ratios(rng, k=10)
        rows = oscillating_rows(self.PLAN, ratios, 0.02, 4)
        pairs = []
        for i, (z, lengths, volts) in enumerate(zip(*rows)):
            pair = (lengths[:z], volts[:z])
            if i % 2:
                shifted = shift_core(PeriodicSchedule(*pair), i % 6, 0.0011 * i)
                pair = (shifted.lengths, shifted.voltage_matrix)
            pairs.append(pair)
        scheds = [PeriodicSchedule(*pair) for pair in pairs]
        stepup = [is_step_up(s) for s in scheds]
        # Both kinds, and the general subset is wider than the step-up one.
        assert any(stepup) and not all(stepup)
        assert max(s.n_intervals for s, f in zip(scheds, stepup) if not f) > max(
            s.n_intervals for s, f in zip(scheds, stepup) if f
        )
        got = peak_rows(model, stack_rows(pairs))
        _assert_peaks_are(got, peak_temperature_batch(model, scheds))
        # Each kind is stacked on its own, as in a batch of its own.
        fast = np.array(stepup)
        for kind in (fast, ~fast):
            alone = peak_rows(model, stack_rows(p for p, f in zip(pairs, kind) if f))
            for field in ("value", "core", "time", "core_peaks"):
                assert (
                    getattr(got, field)[kind].tobytes()
                    == getattr(alone, field).tobytes()
                )
        for i, sched in enumerate(scheds):
            assert got.value[i] == pytest.approx(
                peak_temperature(model, sched).value, abs=PARITY
            )


def _scalar_rows(kernel):
    """A row kernel that prices every row as a schedule on ``kernel``."""

    def price(engine, rows):
        peaks = [
            kernel(engine.model, PeriodicSchedule(ls[:z], vs[:z]))
            for z, ls, vs in zip(*rows)
        ]
        return PeakRows(
            value=np.array([p.value for p in peaks]),
            core=np.array([p.core for p in peaks]),
            time=np.array([p.time for p in peaks]),
            core_peaks=np.array([p.core_peaks for p in peaks]),
        )

    return price


def scalar_trials(monkeypatch):
    """Price solver candidate rows on the scalar kernels instead."""
    monkeypatch.setattr(
        ThermalEngine,
        "stepup_peak_rows",
        _scalar_rows(lambda m, s: stepup_peak_temperature(m, s, check=False)),
    )
    monkeypatch.setattr(
        ThermalEngine, "general_peak_rows", _scalar_rows(peak_temperature)
    )


class TestConsumersUnchanged:
    """Optimizers pricing candidates as rows make the scalar path's choices."""

    def test_choose_m_batch_matches_scalar(self, platform3):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        m_opt, sched, history = choose_m(platform3, plan, 0.02, m_cap=16)
        scalar = []
        for m, peak in history:
            cand = build_oscillating_schedule(
                plan, adjusted_high_ratios(platform3, plan, m, 0.02), 0.02, m
            )
            scalar.append(
                stepup_peak_temperature(platform3.model, cand, check=False).value
            )
            assert peak == pytest.approx(scalar[-1], abs=PARITY)
            if m == m_opt:
                assert sched.interval_rows() == cand.interval_rows()
        assert [m for m, _ in history] == list(range(1, len(history) + 1))
        assert m_opt == history[int(np.argmin(scalar))][0]

    def test_enforce_threshold_batch_matches_scalar(
        self, platform3, monkeypatch
    ):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        ratios0 = plan.high_ratio.copy()

        r_b, sched_b, peak_b, it_b = enforce_threshold(
            platform3, plan, ratios0.copy(), 0.02, 4
        )
        scalar_trials(monkeypatch)
        r_s, sched_s, peak_s, it_s = enforce_threshold(
            platform3, plan, ratios0.copy(), 0.02, 4
        )
        assert it_b == it_s
        np.testing.assert_array_equal(r_b, r_s)
        assert sched_b.interval_rows() == sched_s.interval_rows()
        assert peak_b.value == pytest.approx(peak_s.value, abs=PARITY)

    def test_fill_headroom_batch_matches_scalar(self, platform3, monkeypatch):
        self._check_fill(platform3, monkeypatch, shifts=None)

    def test_shifted_fill_headroom_batch_matches_scalar(
        self, platform3, monkeypatch
    ):
        self._check_fill(platform3, monkeypatch, shifts=[0.0, 0.0011, 0.0])

    @staticmethod
    def _check_fill(platform3, monkeypatch, shifts):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        ratios0, _, _, _ = enforce_threshold(
            platform3, plan, plan.high_ratio.copy(), 0.02, 4
        )
        ratios0 *= 0.6  # leave headroom to fill

        r_b, sched_b, _, it_b = fill_headroom(
            platform3, plan, ratios0.copy(), 0.02, 4, shifts=shifts
        )
        scalar_trials(monkeypatch)
        r_s, sched_s, _, it_s = fill_headroom(
            platform3, plan, ratios0.copy(), 0.02, 4, shifts=shifts
        )
        assert it_b == it_s > 0
        np.testing.assert_array_equal(r_b, r_s)
        assert sched_b.interval_rows() == sched_s.interval_rows()
