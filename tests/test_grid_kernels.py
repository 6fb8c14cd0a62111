"""Eigenbasis cache and the grid-batched consumers.

Covers the process-wide eigenbasis memo (:mod:`repro.util.eigcache`)
and the consumers of the cross-platform grid kernels (``certify_grid``,
``perturbed_peak_batch``) against their scalar counterparts, plus the
comparison sweep's shared m scans (``choose_m_grid``, the batch
executor and its engine hints) against per-unit solves.  The kernels' own parity
suite is ``tests/test_batch.py``.
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

    def test_engine_hints_one_shot(self):
        engine = ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))
        assert engine.take_hint("choose_m", (0.02, 8, 1)) is None
        engine.set_hint("choose_m", (0.02, 8, 1), "payload")
        assert engine.take_hint("choose_m", (0.02, 8, 1)) == "payload"
        assert engine.take_hint("choose_m", (0.02, 8, 1)) is None

    def test_masked_ao_ignores_unmasked_scan_hint(self):
        """A scan planted for the full plan must not steer dark-silicon AO."""
        from repro.algorithms.ao import ao
        from repro.algorithms.continuous import continuous_assignment
        from repro.algorithms.oscillation import choose_m, plan_modes, scan_key

        def platform():
            return paper_platform(3, n_levels=2, t_max_c=65.0)

        mask = np.array([True, False, True])
        fresh = ao(ThermalEngine(platform()), m_cap=16, active_mask=mask)
        engine = ThermalEngine(platform())
        plan = plan_modes(
            engine.platform, continuous_assignment(engine.platform).voltages
        )
        key = scan_key(plan, 0.02, 16, 1)
        engine.set_hint("choose_m", key, choose_m(engine, plan, 0.02, m_cap=16))
        hinted = ao(engine, m_cap=16, active_mask=mask)
        assert hinted.details["m_opt"] == fresh.details["m_opt"] == 5
        assert hinted.throughput == fresh.throughput
        assert hinted.schedule == fresh.schedule
        # The unmasked solve the scan was planted for still finds it.
        assert engine.take_hint("choose_m", key) is not None

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

    def test_comparison_grid_dispatch_equivalence(self, monkeypatch):
        from importlib import import_module

        from repro.experiments.comparison import build_grid

        # import_module: the package attribute ``ao`` is the solver
        # function, not its module.
        ao_mod = import_module("repro.algorithms.ao")
        continuous_mod = import_module("repro.algorithms.continuous")
        oscillation_mod = import_module("repro.algorithms.oscillation")

        calls = {"plan": 0, "scan": 0, "solver_scan": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # The executor looks both names up at call time; ao_core holds
        # its own reference to choose_m, counted apart.
        monkeypatch.setattr(
            continuous_mod, "continuous_assignment",
            counted("plan", continuous_mod.continuous_assignment),
        )
        monkeypatch.setattr(
            oscillation_mod, "choose_m", counted("scan", oscillation_mod.choose_m)
        )
        monkeypatch.setattr(
            ao_mod, "choose_m", counted("solver_scan", ao_mod.choose_m)
        )
        kwargs = dict(
            core_counts=(2, 3),
            level_counts=(2,),
            t_max_values=(65.0,),
            approaches=("AO", "PCO"),
            m_cap=8,
        )
        plain = build_grid(grid_dispatch=False, **kwargs)
        assert calls == {"plan": 0, "scan": 0, "solver_scan": 4}
        calls.update(plan=0, scan=0, solver_scan=0)
        dispatched = build_grid(grid_dispatch=True, **kwargs)
        # One plan and one scan per engine (the AO and PCO units of a
        # cell share one), and no unit scans on its own.
        assert calls == {"plan": 2, "scan": 2, "solver_scan": 0}
        assert len(plain.cells) == len(dispatched.cells) == 2
        for a, b in zip(plain.cells, dispatched.cells):
            for name in ("AO", "PCO"):
                ra, rb = a.results[name], b.results[name]
                assert rb.throughput == ra.throughput
                assert rb.peak_theta == ra.peak_theta
                assert rb.schedule == ra.schedule
                assert rb.details["m_history"] == ra.details["m_history"]
                assert rb.details["m_history"] is not ra.details["m_history"]
        ao_history = dispatched.cells[0].results["AO"].details["m_history"]
        pco_history = dispatched.cells[0].results["PCO"].details["m_history"]
        assert ao_history == pco_history and ao_history is not pco_history
