"""Tests for the Theorem-2 screening utilities."""

from repro.analysis.bounds import (
    Screen,
    classify_schedule,
    prune_candidates,
    stepup_bound,
)
from repro.schedule.builders import phase_schedule, random_schedule
from repro.thermal.peak import peak_temperature


def _candidates(n, rng, period=0.05):
    return [
        random_schedule(3, rng, levels=(0.6, 0.8, 1.0, 1.2, 1.3), period=period)
        for _ in range(n)
    ]


class TestStepupBound:
    def test_bounds_true_peak(self, model3, rng):
        for s in _candidates(10, rng):
            bound = stepup_bound(model3, s)
            true = peak_temperature(model3, s).value
            assert true <= bound + 0.3  # the wrap-epsilon margin


class TestClassify:
    def test_cold_schedule_accepted(self, model3):
        s = phase_schedule([0.6] * 3, [0.8] * 3, 0.01, [0.0, 0.01, 0.02], 0.05)
        assert classify_schedule(model3, s, theta_max=30.0) is Screen.ACCEPT

    def test_hot_schedule_rejected(self, model3):
        s = phase_schedule([1.2] * 3, [1.3] * 3, 0.04, [0.0, 0.0, 0.0], 0.05)
        assert classify_schedule(model3, s, theta_max=10.0) is Screen.REJECT

    def test_borderline_needs_verification(self, model3):
        s = phase_schedule([0.6] * 3, [1.3] * 3, 0.025, [0.0, 0.02, 0.04], 0.05)
        bound = stepup_bound(model3, s)
        # Pick the threshold right at the bound: inconclusive by design.
        assert classify_schedule(model3, s, theta_max=bound) is Screen.VERIFY


class TestPrune:
    def test_decisions_match_ground_truth(self, model3, rng):
        candidates = _candidates(16, rng)
        theta_max = 25.0
        report = prune_candidates(model3, candidates, theta_max)
        # Every index classified exactly once.
        assert sorted(report.feasible + report.infeasible) == list(range(16))
        # Ground truth from the general engine.
        for k, s in enumerate(candidates):
            true = peak_temperature(model3, s).value
            if k in report.feasible:
                assert true <= theta_max + 0.05
            else:
                assert true > theta_max - 0.05

    def test_screening_saves_work(self, model3, rng):
        # With a generous threshold most candidates are bound-accepted.
        candidates = _candidates(16, rng)
        report = prune_candidates(model3, candidates, theta_max=60.0)
        assert report.general_engine_fraction < 0.5
        assert len(report.infeasible) == 0

    def test_empty_candidate_list(self, model3):
        report = prune_candidates(model3, [], theta_max=30.0)
        assert report.feasible == ()
        assert report.general_engine_fraction == 0.0
