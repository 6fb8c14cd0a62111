"""Unit and golden-trace tests for ``repro.realtime``.

Covers the workload model, the k-fault-tolerant placement (margin vs
blind), fault-injected recovery through the closed loop, the
``realtime_cell`` work-unit executor, and the two committed golden
scenarios (paper3 + big.LITTLE) pinned to 1e-9.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, InfeasibleError
from repro.platform import paper_platform
from repro.power import big_little_power_model
from repro.realtime import (
    RTTask,
    TaskSet,
    overload_factor,
    plan_frames,
    simulate_recovery,
    snap_failures,
)
from repro.realtime.scheduler import (
    COND_FULL_OVERLOAD,
    COND_NO_OVERLOAD,
)
from repro.safety.faults import CoreFailure, FaultSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_realtime.json"
PIN = 1e-9


@pytest.fixture(scope="module")
def platform4():
    """3 cores, 4 ladder levels, the tight-threshold regime."""
    return paper_platform(3, n_levels=4, t_max_c=60.0)


@pytest.fixture(scope="module")
def workload():
    return TaskSet.random_frame(
        6, 0.9, 0.02, rng=11, max_task_utilization=0.5
    )


# ----------------------------------------------------------------------
# workload model
# ----------------------------------------------------------------------


class TestFrameWorkload:
    def test_random_hits_requested_utilization(self, rng):
        wl = TaskSet.random_frame(8, 1.5, 0.02, rng=rng)
        assert wl.total_utilization == pytest.approx(1.5)
        assert len(wl) == 8

    def test_random_respects_per_task_cap(self, rng):
        wl = TaskSet.random_frame(
            6, 2.0, 0.02, rng=rng, max_task_utilization=0.5
        )
        for task in wl.tasks:
            assert task.wcet_at(1.0) / wl.frame_s <= 0.5 + 1e-12

    def test_criticalities_are_a_total_order(self, rng):
        wl = TaskSet.random_frame(7, 1.0, 0.02, rng=rng)
        assert sorted(t.criticality for t in wl.tasks) == list(range(7))

    def test_shed_order_lowest_criticality_first(self):
        wl = TaskSet(
            tasks=(
                RTTask("a", 0.001, 0.02, criticality=2),
                RTTask("b", 0.001, 0.02, criticality=0),
                RTTask("c", 0.001, 0.02, criticality=1),
            ),
        )
        assert [t.name for t in wl.shed_order()] == ["b", "c", "a"]

    def test_round_trip(self, workload):
        assert TaskSet.from_dict(workload.as_dict()) == workload

    def test_wcet_scales_inversely_with_speed(self):
        task = RTTask("t", wcec=0.01, period_s=0.02)
        assert task.wcet_at(0.5) == pytest.approx(2 * task.wcet_at(1.0))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSet(tasks=(RTTask("x", 1.0, 0.02), RTTask("x", 2.0, 0.02)))

    def test_same_seed_same_workload(self):
        a = TaskSet.random_frame(5, 1.0, 0.02, rng=42)
        b = TaskSet.random_frame(5, 1.0, 0.02, rng=42)
        assert a == b

    def test_mixed_periods_have_no_frame(self, platform4):
        mixed = TaskSet(
            tasks=(RTTask("a", 0.001, 0.02), RTTask("b", 0.001, 0.04))
        )
        with pytest.raises(ConfigurationError, match="one common period"):
            mixed.frame_s
        with pytest.raises(ConfigurationError, match="one common period"):
            plan_frames(platform4, mixed, k=1)

    def test_empty_set_has_no_frame(self):
        with pytest.raises(ConfigurationError):
            TaskSet(tasks=()).frame_s

    def test_frame_set_runs_through_edf_and_cosim(self, platform4, workload):
        """One frame-generated set feeds the frame scheduler and EDF alike."""
        from repro.sim import cosimulate
        from repro.workload import simulate_edf

        placement = plan_frames(platform4, workload, k=1, policy="margin")
        per_core = [
            [p.task for p in placement.placements if p.primary == core]
            for core in range(placement.n_cores)
        ]
        schedule = placement.envelope_schedule()
        for core, tasks in enumerate(per_core):
            report = simulate_edf(schedule, core, tasks)
            assert report.jobs_released == report.jobs_completed > 0
            assert report.all_deadlines_met
        cosim = cosimulate(platform4.model, schedule, per_core)
        assert cosim.all_deadlines_met
        assert cosim.actual_peak_theta <= cosim.nominal_peak_theta + 1e-9


# ----------------------------------------------------------------------
# fault-spec extensions
# ----------------------------------------------------------------------


class TestCoreFailure:
    def test_permanent_active_from_onset(self):
        f = CoreFailure(core=0, at_fraction=0.5)
        assert not f.active_at(0.4)
        assert f.active_at(0.5)
        assert f.active_at(1.0)

    def test_transient_window(self):
        f = CoreFailure(
            core=1, at_fraction=0.3, kind="transient", duration_fraction=0.2
        )
        assert not f.active_at(0.2)
        assert f.active_at(0.3)
        assert f.active_at(0.49)
        assert not f.active_at(0.5)

    def test_round_trip(self):
        f = CoreFailure(
            core=2, at_fraction=0.25, kind="transient", duration_fraction=0.5
        )
        assert CoreFailure.from_dict(f.as_dict()) == f

    def test_fault_spec_carries_failures(self):
        spec = FaultSpec(
            core_failures=(
                CoreFailure(core=0, at_fraction=0.0),
                CoreFailure(
                    core=1, at_fraction=0.5, kind="transient",
                    duration_fraction=0.1,
                ),
            )
        )
        assert spec.failed_cores_at(0.0) == frozenset({0})
        assert spec.failed_cores_at(0.55) == frozenset({0, 1})
        assert spec.failed_cores_at(0.7) == frozenset({0})
        assert spec.any_structural_fault
        round_tripped = FaultSpec.from_dict(spec.as_dict())
        assert round_tripped.core_failures == spec.core_failures

    def test_as_dict_is_fully_sampled(self):
        # Every field rides in the payload — nothing left to defaults.
        doc = FaultSpec(sensor_noise_sigma=0.5, seed=7).as_dict()
        for key in (
            "sensor_noise_sigma", "sensor_dropout_prob", "stuck_core",
            "ambient_drift_k", "core_failures", "tsv_derating",
            "layer_ambient_gradient_k", "seed",
        ):
            assert key in doc


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------


class TestOverloadFactor:
    def test_full_overload_when_well_conditioned(self):
        assert overload_factor(1.0) == 1.0
        assert overload_factor(COND_FULL_OVERLOAD) == 1.0

    def test_no_overload_when_ill_conditioned(self):
        assert overload_factor(COND_NO_OVERLOAD) == 0.0
        assert overload_factor(1e9) == 0.0

    def test_monotone_in_between(self):
        conds = np.logspace(2, 6, 20)
        factors = [overload_factor(c) for c in conds]
        assert all(a >= b for a, b in zip(factors, factors[1:]))


class TestPlanFrames:
    def test_margin_placement_is_certified(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        assert p.certificate is not None
        assert p.certificate.accepted and p.certificate.feasible
        assert not p.shed

    def test_backup_chains_have_k_distinct_cores(self, platform4, workload):
        p = plan_frames(platform4, workload, k=2, policy="margin")
        for placed in p.placements:
            assert len(placed.backups) == 2
            chain = {placed.primary, *placed.backups}
            assert len(chain) == 3  # primary + k distinct backups

    def test_k_plus_one_exceeding_cores_is_infeasible(
        self, platform4, workload
    ):
        with pytest.raises(InfeasibleError):
            plan_frames(platform4, workload, k=3, policy="margin")

    def test_unknown_policy_rejected(self, platform4, workload):
        with pytest.raises(ConfigurationError):
            plan_frames(platform4, workload, k=1, policy="bogus")

    def test_blind_activates_at_top_level(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="blind")
        top = len(platform4.ladder.levels) - 1
        assert all(lvl == top for lvl in p.activation_levels)

    def test_margin_activation_never_below_nominal(
        self, platform4, workload
    ):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        for nominal, activation in zip(p.levels, p.activation_levels):
            assert activation >= nominal

    def test_primaries_fit_before_the_backup_window(
        self, platform4, workload
    ):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        for core in range(p.n_cores):
            assert (
                p.primary_seconds(core)
                <= p.frame_s - p.backup_window_s + 1e-9
            )

    def test_margin_envelope_respects_threshold(self, platform4, workload):
        from repro.engine import ThermalEngine

        engine = ThermalEngine.ensure(platform4)
        p = plan_frames(platform4, workload, k=1, policy="margin")
        peak = engine.general_peak(p.envelope_schedule())
        assert peak.value <= engine.theta_max + 1e-6

    def test_blind_envelope_can_violate_threshold(self, platform4):
        # The divergence regime: blind admits what margin prices out.
        from repro.engine import ThermalEngine

        engine = ThermalEngine.ensure(platform4)
        wl = TaskSet.random_frame(
            6, 1.2, 0.02, rng=104, max_task_utilization=0.5
        )
        p = plan_frames(platform4, wl, k=1, policy="blind")
        peak = engine.general_peak(p.envelope_schedule())
        assert peak.value > engine.theta_max

    def test_shedding_drops_lowest_criticality_first(self, platform4):
        wl = TaskSet.random_frame(
            6, 2.4, 0.02, rng=11, max_task_utilization=0.6
        )
        p = plan_frames(platform4, wl, k=1, policy="margin")
        assert p.shed  # this utilization cannot fully fit
        crits = {t.name: t.criticality for t in wl.tasks}
        kept = [placed.task.name for placed in p.placements]
        # Every shed task has criticality below every kept task.
        assert max(crits[n] for n in p.shed) < min(crits[n] for n in kept)


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------


class TestSnapFailures:
    def test_snaps_up_to_frame_boundary(self):
        spec = FaultSpec(
            core_failures=(CoreFailure(core=0, at_fraction=0.26),)
        )
        snapped = snap_failures(spec, 4)
        assert snapped.core_failures[0].at_fraction == pytest.approx(0.5)

    def test_exact_boundary_stays(self):
        spec = FaultSpec(
            core_failures=(CoreFailure(core=0, at_fraction=0.5),)
        )
        snapped = snap_failures(spec, 4)
        assert snapped.core_failures[0].at_fraction == pytest.approx(0.5)

    def test_transient_duration_rounds_up_to_whole_frames(self):
        spec = FaultSpec(
            core_failures=(
                CoreFailure(
                    core=0, at_fraction=0.0, kind="transient",
                    duration_fraction=0.01,
                ),
            )
        )
        snapped = snap_failures(spec, 4)
        assert snapped.core_failures[0].duration_fraction == pytest.approx(
            0.25
        )


class TestSimulateRecovery:
    def test_single_failure_zero_misses(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        report = simulate_recovery(
            platform4, p,
            {"core_failures": [{"core": 0, "at_fraction": 0.4}]},
        )
        assert report.deadline_misses == 0
        assert report.safe
        assert report.activations  # backups actually ran

    def test_transient_failure_recovers_without_recertification(
        self, platform4, workload
    ):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        report = simulate_recovery(
            platform4, p,
            {"core_failures": [{
                "core": 1, "at_fraction": 0.3, "kind": "transient",
                "duration_fraction": 0.2,
            }]},
        )
        assert report.deadline_misses == 0
        assert report.recertified is None  # nothing permanent to re-certify
        assert report.safe

    def test_permanent_failure_recertifies_degraded_placement(
        self, platform4, workload
    ):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        report = simulate_recovery(
            platform4, p,
            {"core_failures": [{"core": 0, "at_fraction": 0.4}]},
        )
        assert report.recertified is not None
        assert report.recertified_ok

    def test_more_failures_than_k_can_miss(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        report = simulate_recovery(
            platform4, p,
            {"core_failures": [
                {"core": 0, "at_fraction": 0.3},
                {"core": 1, "at_fraction": 0.3},
            ]},
        )
        # Two failures against k=1: tasks with both copies dead miss.
        assert report.deadline_misses > 0
        assert not report.safe

    def test_failed_core_is_power_gated_in_trace(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        report = simulate_recovery(
            platform4, p,
            {"core_failures": [{"core": 0, "at_fraction": 0.5}]},
            n_frames=8, steps_per_frame=8,
        )
        # After the (snapped) failure at step 32, core 0's applied
        # voltage is 0; before it, the core runs.
        levels = np.asarray(report.trace.levels)
        assert np.all(levels[32:, 0] == 0.0)
        assert np.all(levels[:32, 0] > 0.0)

    def test_clean_run_is_safe_and_quiet(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        report = simulate_recovery(platform4, p, None)
        assert report.deadline_misses == 0
        assert report.activations == ()
        assert report.recertified is None
        assert report.safe

    def test_core_count_mismatch_rejected(self, platform4, workload):
        p = plan_frames(platform4, workload, k=1, policy="margin")
        other = paper_platform(2, n_levels=2, t_max_c=65.0)
        with pytest.raises(ConfigurationError):
            simulate_recovery(other, p, None)


# ----------------------------------------------------------------------
# the realtime_cell executor
# ----------------------------------------------------------------------


class TestRealtimeCellExecutor:
    def payload(self, workload, policy="margin"):
        return {
            "platform": {
                "family": "paper",
                "overrides": {
                    "n_cores": 3, "n_levels": 4, "t_max_c": 60.0,
                },
            },
            "policy": policy,
            "k": 1,
            "workload": workload.as_dict(),
            "faults": FaultSpec(
                core_failures=(CoreFailure(core=0, at_fraction=0.4),)
            ).as_dict(),
            "n_frames": 4,
            "steps_per_frame": 4,
        }

    def test_executes_and_reports_schedulable(self, workload):
        from repro.runner.units import execute_unit

        doc = {
            "kind": "realtime_cell",
            "payload": self.payload(workload),
            "label": "t",
        }
        outcome = execute_unit(doc)
        assert outcome["status"] == "ok"
        assert outcome["result"]["schedulable"] is True
        assert outcome["result"]["recovery"]["deadline_misses"] == 0

    def test_replay_is_bitwise_identical(self, workload):
        from repro.runner.units import realtime_cell_outcome

        payload = self.payload(workload)
        a = realtime_cell_outcome(payload)
        b = realtime_cell_outcome(payload)
        a.pop("spans"), b.pop("spans")  # span timings are wall-clock
        a["stats"] = b["stats"] = None  # engine cache state differs
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_infeasible_is_an_outcome_not_a_crash(self):
        from repro.runner.units import realtime_cell_outcome

        heavy = TaskSet(
            tasks=(RTTask("big", wcec=0.2, period_s=0.02, criticality=0),),
        )
        payload = self.payload(heavy)
        outcome = realtime_cell_outcome(payload)
        assert outcome["status"] == "infeasible"
        assert outcome["result"] is None


# ----------------------------------------------------------------------
# the experiment
# ----------------------------------------------------------------------


class TestRealtimeExperiment:
    def test_quick_preset_runs_and_finds_the_gap(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("realtime", quick=True)
        assert result.rows
        assert result.headline()["experiment"] == "realtime"
        assert "schedulability" in result.format()

    def test_headline_is_reproducible(self):
        from repro.experiments.realtime import realtime_experiment

        kwargs = dict(
            k_values=(1,), intensities=(1,), utilizations=(0.9,),
            n_sets=2, n_frames=4, steps_per_frame=4,
        )
        a = realtime_experiment(**kwargs).headline()
        b = realtime_experiment(**kwargs).headline()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_committed_results_match_regeneration(self, committed_result):
        doc = committed_result("realtime")
        assert doc["experiment"] == "realtime"
        assert doc["mean_schedulability_gap"] > 0
        for row in doc["rows"]:
            if row["intensity"] <= row["k"]:
                # The k-fault guarantee: margin placements stay safe.
                assert row["margin"]["safe"] == 1.0


# ----------------------------------------------------------------------
# golden scenarios
# ----------------------------------------------------------------------


def _golden_platform(case: str):
    if "paper3" in case:
        return paper_platform(3, n_levels=4, t_max_c=60.0)
    return paper_platform(
        6,
        n_levels=2,
        t_max_c=65.0,
        power=big_little_power_model(big_cores=[0, 1, 2], n_cores=6),
    )


GOLDEN_CASES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "doc", GOLDEN_CASES, ids=[c["case"] for c in GOLDEN_CASES]
)
def test_golden_realtime_replays(doc):
    platform = _golden_platform(doc["case"])
    workload = TaskSet.random_frame(**doc["workload_kwargs"])
    placement = plan_frames(
        platform, workload, k=doc["k"], policy=doc["policy"]
    )
    assert placement.as_dict() == doc["placement"]
    report = simulate_recovery(
        platform, placement, {"core_failures": doc["failures"]},
        n_frames=8, steps_per_frame=8,
    )
    assert report.as_dict() == doc["recovery"]
    np.testing.assert_allclose(
        report.trace.times, np.asarray(doc["trace_times"]), atol=PIN, rtol=0
    )
    np.testing.assert_allclose(
        report.trace.levels, np.asarray(doc["trace_levels"]),
        atol=PIN, rtol=0,
    )
    assert report.trace.peak_theta == pytest.approx(
        doc["trace_peak_theta"], abs=PIN
    )


def test_golden_covers_both_platforms():
    cases = {c["case"] for c in GOLDEN_CASES}
    assert any("paper3" in c for c in cases)
    assert any("big_little" in c for c in cases)
