"""Tests for the integral-controller solver family and its seeding."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.control import (
    ControllerTrace,
    dc_gain_vector,
    integral_controller,
    scheduled_gains,
)
from repro.algorithms.registry import SOLVERS, guarded_solve
from repro.engine import ThermalEngine
from repro.errors import SolverError
from repro.obs import METRICS
from repro.platform import paper_platform
from repro.power import big_little_power_model

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def engine3(platform3):
    return ThermalEngine(platform3)


class TestGainScheduling:
    def test_dc_gains_positive_and_symmetric(self, engine3):
        s = dc_gain_vector(engine3)
        assert s.shape == (3,)
        assert np.all(s > 0)
        # The 1x3 row is mirror-symmetric: edge cores share a DC gain,
        # the coupled middle core runs hotter per volt... or cooler —
        # either way, edges match each other.
        assert s[0] == pytest.approx(s[2], rel=1e-9)

    def test_dominant_vs_per_core_gains(self, engine3):
        k_dom = scheduled_gains(engine3, 1e-3)
        k_per = scheduled_gains(engine3, 1e-3, per_core=True)
        assert np.all(k_dom > 0) and np.all(k_per > 0)
        assert not np.allclose(k_dom, k_per)
        # Local time constants are faster than the dominant one, so a
        # larger fraction of the DC response lands per period and the
        # scheduled gains come out gentler.
        assert np.all(k_per <= k_dom + 1e-12)

    def test_gain_scale_is_linear(self, engine3):
        k1 = scheduled_gains(engine3, 1e-3)
        k2 = scheduled_gains(engine3, 1e-3, gain_scale=0.5)
        assert k2 == pytest.approx(0.5 * k1)


class TestIntegralController:
    def test_returns_settled_result(self, platform3):
        r = integral_controller(platform3)
        assert r.name == "Integral"
        assert r.throughput > 0
        assert np.isfinite(r.peak_theta)
        trace = r.details["trace"]
        assert isinstance(trace, ControllerTrace)
        assert trace.levels.shape == trace.commands.shape
        assert trace.integrals.shape == trace.commands.shape

    def test_levels_are_on_the_ladder(self, platform3):
        r = integral_controller(platform3)
        levels = np.asarray(platform3.ladder.levels)
        applied = r.details["trace"].levels
        assert np.all(np.isin(applied, levels))

    def test_integral_state_respects_antiwindup(self, platform3):
        r = integral_controller(platform3, faults={"sensor_noise_sigma": 3.0})
        z_lo, z_hi = (np.asarray(b) for b in r.details["windup_z_bounds"])
        z = r.details["trace"].integrals
        assert np.all(z >= z_lo - 1e-12)
        assert np.all(z <= z_hi + 1e-12)

    def test_commands_span_exactly_the_ladder(self, platform3):
        r = integral_controller(platform3)
        u = r.details["trace"].commands
        assert np.all(u >= platform3.ladder.v_min - 1e-9)
        assert np.all(u <= platform3.ladder.v_max + 1e-9)

    def test_explicit_ki_scalar_and_vector(self, platform3):
        r_scalar = integral_controller(platform3, ki=50.0)
        r_vector = integral_controller(platform3, ki=(50.0, 50.0, 50.0))
        assert r_scalar.details["gains"] == r_vector.details["gains"]

    def test_regulates_near_reference(self, platform3):
        """Settled sensor readings oscillate about the reference, not
        pinned at either ladder rail."""
        r = integral_controller(platform3, horizon=0.5)
        trace = r.details["trace"]
        settled = trace.levels[trace.levels.shape[0] // 2:]
        # The limit cycle genuinely dithers: both ladder levels appear.
        assert len(np.unique(settled)) == 2
        theta_ref = r.details["theta_ref"]
        cores_settled = trace.temperatures[
            trace.temperatures.shape[0] // 2:, :3
        ]
        assert abs(float(cores_settled.max(axis=1).mean()) - theta_ref) < 3.0

    def test_gain_sched_mode(self, platform3):
        r = integral_controller(platform3, gain_schedule=True)
        assert r.name == "GainSched"
        assert r.details["gain_schedule"] is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sensor_period": 0.0},
            {"reference_offset": -1.0},
            {"gain_scale": 0.0},
            {"hot_gain": 0.5},
            {"ki": -1.0},
        ],
    )
    def test_invalid_params_raise(self, platform3, kwargs):
        with pytest.raises(SolverError):
            integral_controller(platform3, **kwargs)

    def test_stuck_core_pinned_in_trace(self, platform3):
        r = integral_controller(
            platform3, faults={"stuck_core": 1, "stuck_level": 0}
        )
        applied = r.details["trace"].levels
        assert np.all(applied[:, 1] == platform3.ladder.v_min)

    def test_same_fault_seed_is_bitwise_identical(self, platform3):
        faults = {"sensor_noise_sigma": 1.0, "sensor_dropout_prob": 0.2,
                  "seed": 99}
        a = integral_controller(platform3, faults=faults)
        b = integral_controller(platform3, faults=faults)
        assert a.throughput == b.throughput
        assert a.peak_theta == b.peak_theta
        ta, tb = a.details["trace"], b.details["trace"]
        assert np.array_equal(ta.temperatures, tb.temperatures)
        assert np.array_equal(ta.levels, tb.levels)
        assert np.array_equal(ta.integrals, tb.integrals)

    def test_metrics_and_span_wiring(self, platform3):
        runs = METRICS.counter("controller.runs")
        before = runs.value
        from repro.obs import capture_spans

        with capture_spans(isolate=True) as spans:
            integral_controller(platform3, horizon=0.05)
        assert runs.value == before + 1
        assert any(s.name == "controller/loop" for s in spans)
        assert any(s.name == "solve/integral" for s in spans)

    def test_engine_and_platform_agree(self, platform3):
        via_platform = integral_controller(platform3, horizon=0.2)
        via_engine = integral_controller(ThermalEngine(platform3), horizon=0.2)
        assert via_platform.throughput == via_engine.throughput
        assert via_platform.peak_theta == via_engine.peak_theta


class TestRegistryIntegration:
    def test_guarded_solve_attaches_accepted_certificate(self, platform3):
        for name in ("integral", "gain_sched"):
            r = guarded_solve(name, platform3, horizon=0.2)
            assert r.certificate is not None
            assert r.certificate.accepted
            assert "fallback" not in r.details

    def test_certified_on_big_little_platform(self):
        bl = paper_platform(
            6,
            n_levels=2,
            t_max_c=55.0,
            power=big_little_power_model(big_cores=[0, 1, 2], n_cores=6),
        )
        r = guarded_solve("integral", bl, horizon=0.1)
        assert r.certificate is not None
        assert r.certificate.accepted
        assert r.throughput > 0

    def test_gain_sched_spec_forces_scheduling(self, platform3):
        r = SOLVERS["gain_sched"].solve(platform3, horizon=0.1)
        assert r.name == "GainSched"
        assert r.details["gain_schedule"] is True


class TestSeededRNGAudit:
    """Satellite: explicit generators only, and seeds that journal."""

    ALLOWED = ("default_rng", "SeedSequence", "Generator")

    def test_no_module_level_numpy_random_calls(self):
        """Every ``np.random.*`` use in src/ goes through an explicit
        Generator API — no legacy global-state sampling anywhere."""
        pattern = re.compile(r"np\.random\.(\w+)|numpy\.random\.(\w+)")
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                for match in pattern.finditer(line):
                    attr = match.group(1) or match.group(2)
                    if attr not in self.ALLOWED:
                        offenders.append(f"{path.name}:{lineno}: {attr}")
        assert not offenders, (
            "legacy numpy.random usage (thread a Generator instead): "
            + ", ".join(offenders)
        )

    def test_faults_experiment_same_seed_bitwise_identical(self):
        from repro.experiments.faults import faults_experiment

        scenarios = (
            ("noise", {"sensor_noise_sigma": 0.5}),
            ("noise + dropout", {
                "sensor_noise_sigma": 0.5, "sensor_dropout_prob": 0.3,
            }),
        )
        a = faults_experiment(n_cores=2, scenarios=scenarios, m_cap=8, seed=5)
        b = faults_experiment(n_cores=2, scenarios=scenarios, m_cap=8, seed=5)
        assert a.rows == b.rows
        assert a.seed == b.seed == 5

    def test_faults_experiment_scenarios_get_distinct_seeds(self):
        from repro.experiments.faults import faults_experiment

        scenarios = (
            ("noise a", {"sensor_noise_sigma": 0.5}),
            ("noise b", {"sensor_noise_sigma": 0.5}),
        )
        r = faults_experiment(n_cores=2, scenarios=scenarios, m_cap=8, seed=5)
        seeds = [row.faults.seed for row in r.rows]
        assert len(set(seeds)) == len(seeds)

    def test_control_experiment_journals_every_seed(self, tmp_path):
        from repro.experiments.control import control_experiment

        run_dir = tmp_path / "run"
        r = control_experiment(
            intensities=(0.0, 1.0), horizon=0.05, m_cap=8, seed=123,
            run_dir=run_dir,
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "control"
        assert manifest["seed"] == 123
        assert manifest["fault_seeds"] == [row.seed for row in r.rows]
        journaled_seeds = set()
        with open(run_dir / "journal.jsonl", encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                faults = (row.get("payload") or {}).get("params", {}).get(
                    "faults"
                )
                if faults:
                    journaled_seeds.add(faults["seed"])
        assert journaled_seeds == {
            row.seed for row in r.rows if row.intensity > 0
        }

    def test_control_experiment_same_seed_bitwise_identical(self):
        from repro.experiments.control import control_experiment

        a = control_experiment(intensities=(0.0, 1.0), horizon=0.05, m_cap=8)
        b = control_experiment(intensities=(0.0, 1.0), horizon=0.05, m_cap=8)
        assert a.headline() == b.headline()


def test_committed_results_match_regeneration(committed_result):
    doc = committed_result("control")
    assert doc["experiment"] == "control"
