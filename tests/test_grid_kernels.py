"""Eigenbasis cache and the grid-batched consumers.

Covers the process-wide eigenbasis memo (:mod:`repro.util.eigcache`)
and the consumers of the cross-platform grid kernels (``certify_grid``,
``perturbed_peak_batch``) against their scalar counterparts, plus the
comparison sweep's sharing of AO work (``choose_m_grid`` and the
engine's memo of ``ao_core``) against per-unit solves on fresh engines.
The kernels' own parity suite is ``tests/test_batch.py``.
"""

import numpy as np
import pytest

from repro.engine import EngineStats, ThermalEngine
from repro.platform import paper_platform
from repro.schedule.builders import (
    constant_schedule,
    random_schedule,
    random_stepup_schedule,
)
from repro.util import eigcache

PARITY = 1e-9


class TestEigenCache:
    def test_key_content_addressed(self, model3):
        k1 = eigcache.eigen_cache_key(model3.a, model3.c_diag)
        k2 = eigcache.eigen_cache_key(model3.a.copy(), model3.c_diag.copy())
        assert k1 == k2
        k3 = eigcache.eigen_cache_key(model3.a * 1.0000001, model3.c_diag)
        assert k3 != k1

    def test_memory_hit(self, model3):
        eigcache.clear_memory_cache()
        eig1, origin1 = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        eig2, origin2 = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        assert origin1 == "miss" and origin2 == "memory"
        np.testing.assert_array_equal(eig1.eigenvalues, eig2.eigenvalues)
        assert eig1 is not eig2  # fresh wrapper, shared factors

    def test_factors_read_only(self, model3):
        eigcache.clear_memory_cache()
        eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        eig, origin = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        assert origin == "memory"
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 0.0

    def test_model_counters(self):
        eigcache.clear_memory_cache()
        m1 = paper_platform(3, n_levels=2, t_max_c=55.0).model
        _ = m1.eigen
        assert (m1.eig_cache_hits, m1.eig_cache_misses) == (0, 1)
        m2 = paper_platform(3, n_levels=2, t_max_c=55.0).model
        _ = m2.eigen
        assert (m2.eig_cache_hits, m2.eig_cache_misses) == (1, 0)

    def test_stats_flow(self):
        eigcache.clear_memory_cache()
        engine = ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))
        mark = engine.checkpoint()
        _ = engine.model.eigen
        stats = engine.stats_since(mark)
        assert stats.eigen_cache_misses == 1
        assert stats.eigen_cache_hit_rate == 0.0
        # combine() aggregates per-unit rows into one truthful hit-rate.
        combined = stats.combine(
            EngineStats(eigen_cache_hits=3, eigen_cache_misses=0)
        )
        assert combined.eigen_cache_hits == 3
        assert combined.eigen_cache_misses == 1
        assert combined.eigen_cache_hit_rate == pytest.approx(0.75)
        assert "eigenbasis cache" in combined.format()
        roundtrip = EngineStats.from_dict(combined.as_dict())
        assert roundtrip.eigen_cache_hits == 3
        # Journal rows written before the expm LRU was removed still
        # carry its counter; they load, and the counter is dropped.
        old_row = dict(combined.as_dict(), expm_cache_hits=7)
        assert EngineStats.from_dict(old_row) == roundtrip
        assert "expm_cache_hits" not in roundtrip.as_dict()


class TestGridConsumers:
    def test_choose_m_grid(self, rng):
        from repro.algorithms.continuous import continuous_assignment
        from repro.algorithms.oscillation import choose_m, choose_m_grid, plan_modes

        targets = []
        for n, t_max in ((2, 65.0), (3, 55.0)):
            engine = ThermalEngine(paper_platform(n, n_levels=2, t_max_c=t_max))
            cont = continuous_assignment(engine.platform)
            plan = plan_modes(engine.platform, cont.voltages)
            targets.append((engine, plan))
        grid = choose_m_grid(targets, period=0.02, m_cap=8)
        assert grid == [
            choose_m(engine, plan, 0.02, m_cap=8) for engine, plan in targets
        ]

    def test_ao_core_memo_isolation(self):
        """Changing one caller's core leaves the next caller's copy intact."""
        from repro.algorithms.ao import ao_core

        engine = ThermalEngine(paper_platform(3, n_levels=2, t_max_c=55.0))
        first = ao_core(engine, 0.02, m_cap=16)
        pristine = (
            list(first.details["m_history"]), first.ratios.copy(),
            sorted(first.details),
        )
        first.details["m_history"].append((99, 0.0))
        first.details["m_opt"] = -1
        first.ratios[:] = -1.0
        # What every caller shares is read-only.
        for shared in (first.plan.v_low, first.details["continuous_voltages"],
                       first.peak.core_peaks):
            with pytest.raises(ValueError):
                shared[0] = 0.0
        mark = engine.checkpoint()
        second = ao_core(engine, 0.02, m_cap=16)
        assert engine.stats_since(mark).peak_evals == 0  # a memo hit
        assert second.details["m_history"] == pristine[0]
        assert np.array_equal(second.ratios, pristine[1])
        assert sorted(second.details) == pristine[2]
        # Another parameter set is another core.
        ao_core(engine, 0.02, m_cap=8)
        assert engine.stats_since(mark).peak_evals > 0

    def test_engine_memo_bounded(self):
        from repro.engine import MEMO_SIZE

        engine = ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))
        builds = []

        def build(i):
            builds.append(i)
            return i

        for i in range(3 * MEMO_SIZE):
            assert engine.memo(("k", i), lambda: build(i)) == (i, False)
        assert len(engine._memo) == MEMO_SIZE
        # The newest entries stay; the oldest were dropped and rebuild.
        last = 3 * MEMO_SIZE - 1
        assert engine.memo(("k", last), lambda: build(-1)) == (last, True)
        assert engine.memo(("k", 0), lambda: build(0)) == (0, False)
        assert len(engine._memo) == MEMO_SIZE
        assert builds == [*range(3 * MEMO_SIZE), 0]

    def test_masked_ao_never_reuses_unmasked_core(self):
        """A core built for the full chip must not steer dark-silicon AO."""
        from repro.algorithms.ao import ao

        def platform():
            return paper_platform(3, n_levels=2, t_max_c=65.0)

        mask = np.array([True, False, True])
        fresh = ao(ThermalEngine(platform()), m_cap=16, active_mask=mask)
        engine = ThermalEngine(platform())
        unmasked = ao(engine, m_cap=16)
        masked = ao(engine, m_cap=16, active_mask=mask)
        # Built its own core: the same thermal work as on a fresh engine.
        assert masked.stats.peak_evals == fresh.stats.peak_evals
        assert masked.details["m_opt"] == fresh.details["m_opt"] == 5
        assert unmasked.details["m_opt"] != 5
        assert masked.throughput == fresh.throughput
        assert masked.schedule == fresh.schedule
        # Each parameter set reuses its own core.
        again = ao(engine, m_cap=16, active_mask=mask.tolist())
        assert again.stats.peak_evals < fresh.stats.peak_evals
        assert sorted(again.details) == sorted(masked.details)
        assert again.schedule == fresh.schedule
        assert ao(engine, m_cap=16).schedule == unmasked.schedule

    def test_certify_grid_matches_scalar(self, rng):
        from repro.safety.certificate import certify, certify_grid

        items = []
        for n in (2, 3):
            engine = ThermalEngine(paper_platform(n, n_levels=2, t_max_c=65.0))
            items.append((engine, random_schedule(n, rng)))
            items.append(
                (engine, random_stepup_schedule(n, rng), {"claimed_feasible": True})
            )
        grid = certify_grid(items)
        for item, gc in zip(items, grid):
            claims = dict(item[2]) if len(item) > 2 else {}
            sc = certify(item[0], item[1], **claims)
            assert gc.peak_theta == pytest.approx(sc.peak_theta, abs=PARITY)
            assert gc.method_peaks.keys() == sc.method_peaks.keys()
            assert gc.accepted == sc.accepted
            assert gc.reasons == sc.reasons

    def test_adaptive_reference_sampling(self, rng):
        from repro.safety.certificate import SafetyCertificate, certify

        engine = ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))
        # A cool schedule sits far below T_max: the oracle subsamples.
        sched = constant_schedule([1.0, 1.0], period=0.02)
        fixed = certify(
            engine, sched, reference=True, adaptive_reference=False,
            reference_samples=64,
        )
        adaptive = certify(engine, sched, reference=True, reference_samples=64)
        assert fixed.reference_samples_used == 64
        assert adaptive.reference_samples_used == 16
        assert adaptive.accepted
        roundtrip = SafetyCertificate.from_dict(adaptive.as_dict())
        assert roundtrip.reference_samples_used == 16
        assert fixed.method_peaks["reference"] == pytest.approx(
            adaptive.method_peaks["reference"], abs=1e-3
        )

    def test_perturbed_peak_batch(self, rng):
        from repro.safety.faults import FaultSpec, perturbed_peak, perturbed_peak_batch

        engine = ThermalEngine(paper_platform(3, n_levels=2, t_max_c=65.0))
        sched = random_stepup_schedule(3, rng, max_segments=3)
        specs = [
            FaultSpec(),
            FaultSpec(sensor_noise_sigma=0.5),
            FaultSpec(stuck_core=0, stuck_level=-1),
            FaultSpec(ambient_drift_k=2.0),
        ]
        batch = perturbed_peak_batch(engine, sched, specs)
        for spec, peak in zip(specs, batch):
            assert peak == pytest.approx(
                perturbed_peak(engine, sched, spec), abs=PARITY
            )
        assert perturbed_peak_batch(engine, sched, []) == []

    def test_comparison_sweep_shares_one_core_per_cell(self, monkeypatch):
        from importlib import import_module

        from repro.experiments.comparison import build_grid
        from repro.service.session import reset_default_session

        # import_module: the package attribute ``ao`` is the solver
        # function, not its module.
        ao_mod = import_module("repro.algorithms.ao")
        calls = {"plan": 0, "scan": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ao_mod, "continuous_assignment",
            counted("plan", ao_mod.continuous_assignment),
        )
        monkeypatch.setattr(ao_mod, "choose_m", counted("scan", ao_mod.choose_m))
        # Session engines (and their memos) live for the whole process: a
        # fresh session, so the sweep reuses no core built before it.
        reset_default_session()
        try:
            grid = build_grid(
                core_counts=(2, 3), level_counts=(2,), t_max_values=(65.0,),
                m_cap=8,
            )
        finally:
            reset_default_session()
        # One plan and one scan per cell: units run cell by cell (LNS,
        # EXS, AO, PCO), and each cell's PCO unit reuses the core its AO
        # unit memoized on the shared session engine.
        assert calls == {"plan": 2, "scan": 2}
        assert len(grid.cells) == 2
        for cell in grid.cells:
            assert set(cell.results) == {"LNS", "EXS", "AO", "PCO"}
            ao_history = cell.results["AO"].details["m_history"]
            pco_history = cell.results["PCO"].details["m_history"]
            assert ao_history == pco_history and ao_history is not pco_history

    def test_sweep_units_match_fresh_solves(self):
        """Every AO/PCO unit of a sweep equals its solve on a fresh engine.

        Pins schedules, not just throughputs: AO/PCO throughput is nearly
        tau-invariant, while the interval lengths move with tau.
        """
        from repro.algorithms.registry import get_solver, guarded_solve
        from repro.experiments.comparison import build_grid
        from repro.runner import comparison_units
        from repro.runner.units import solve_cell_platform
        from repro.schedule.serialization import result_from_dict, result_to_dict
        from repro.service.session import reset_default_session

        grid_args = dict(
            core_counts=(2, 3), level_counts=(2,), t_max_values=(65.0,),
            approaches=("AO", "PCO"),
        )
        params = dict(period=0.02, m_cap=16, m_step=1, shift_grid=8)
        reset_default_session()
        try:
            sweeps = {
                tau: build_grid(tau=tau, **grid_args, **params)
                for tau in (5e-6, 5.004e-6)
            }
        finally:
            reset_default_session()
        lengths = {tau: [] for tau in sweeps}
        for tau, grid in sweeps.items():
            units = comparison_units(
                grid_args["core_counts"], grid_args["level_counts"],
                grid_args["t_max_values"], grid_args["approaches"], params,
                tau=tau,
            )
            assert len(units) == 4
            for unit in units:
                payload = unit.payload
                algo = str(payload["algo"])
                swept = grid.find(int(payload["n_cores"])).results[algo]
                engine = ThermalEngine(solve_cell_platform(payload))
                fresh = result_from_dict(result_to_dict(guarded_solve(
                    get_solver(algo), engine, **payload["params"]
                )))
                assert swept.throughput == fresh.throughput
                assert swept.peak_theta == fresh.peak_theta
                assert np.array_equal(swept.schedule.lengths, fresh.schedule.lengths)
                assert np.array_equal(
                    swept.schedule.voltage_matrix, fresh.schedule.voltage_matrix
                )
                assert swept.details["m_opt"] == fresh.details["m_opt"]
                assert swept.details["m_history"] == fresh.details["m_history"]
                # Only the PCO unit reused a core: it skipped the AO
                # core's thermal work.
                assert (swept.stats.peak_evals < fresh.stats.peak_evals) == (
                    algo == "PCO"
                )
                lengths[tau].append(swept.schedule.lengths)
        # The two tau values give two different sets of schedules.
        a, b = lengths.values()
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))
