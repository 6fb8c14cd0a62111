"""Tests for the safety layer: certificates, fallback chains, fault specs.

The robustness contract under test:

* every result leaving the registry carries an independent
  :class:`~repro.safety.certificate.SafetyCertificate`,
* an injected crash in *any* registered solver degrades through the
  fallback chain to a feasible certified schedule — visible in spans,
  metrics, and ``details["fallback"]`` — never an unhandled exception,
* fault specs validate their knobs and perturb deterministically.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.algorithms.registry import SOLVERS, get_solver, guarded_solve
from repro.engine import ThermalEngine
from repro.errors import ConfigurationError, InfeasibleError, SolverError
from repro.obs import METRICS, capture_spans
from repro.platform import paper_platform
from repro.safety import (
    FALLBACK_CHAIN,
    FaultSpec,
    SafetyCertificate,
    certify,
    perturbed_peak,
    run_fallback_hop,
    stuck_schedule,
)
from repro.schedule.builders import constant_schedule
from repro.tolerances import ROUTE_AGREEMENT


@pytest.fixture(scope="module")
def engine2():
    return ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))


@pytest.fixture(scope="module")
def ill_engine():
    """A deliberately ill-conditioned 2-core platform.

    No preset crosses :data:`MARGIN_POLICY_CONDITION` (the worst,
    ``stack3d``, sits around 2e2), so the shrink policy's applied path
    needs a synthetic system: inflating one core's ambient conductance
    stretches the spectrum of ``G - E_beta`` past 1e4 while keeping it
    symmetric positive definite — the platform just cools that core
    harder, so every solver still runs.
    """
    from repro.platform import Platform
    from repro.thermal.model import ThermalModel
    from repro.thermal.rc import RCNetwork

    base = paper_platform(2, n_levels=2, t_max_c=65.0)
    net = base.model.network
    g = net.conductance.copy()
    g[0, 0] += 5e3
    network = RCNetwork(
        floorplan=net.floorplan,
        conductance=g,
        capacitance=net.capacitance,
        core_nodes=net.core_nodes,
    )
    model = ThermalModel(network, base.model.power,
                         t_ambient_c=base.model.t_ambient_c)
    return ThermalEngine(
        Platform(model=model, ladder=base.ladder,
                 overhead=base.overhead, t_max_c=65.0)
    )


@pytest.fixture(scope="module")
def ao_result(engine2):
    return get_solver("AO").solve(engine2, m_cap=16)


class TestCertify:
    def test_good_schedule_accepted(self, engine2, ao_result):
        cert = ao_result.certificate
        assert cert is not None
        assert cert.accepted and cert.independent and cert.step_up
        assert cert.disagreement <= cert.tolerance
        assert "matex" in cert.method_peaks and "claimed" in cert.method_peaks
        assert np.isfinite(cert.condition_number)

    def test_lying_peak_claim_rejected(self, engine2, ao_result):
        cert = certify(
            engine2,
            ao_result.schedule,
            claimed_peak=ao_result.peak_theta - 5.0,  # a 5 K lie
        )
        assert not cert.accepted
        assert any("disagree" in r for r in cert.reasons)

    def test_false_feasibility_claim_rejected(self, engine2):
        hot = constant_schedule(
            np.full(2, engine2.ladder.v_max), period=0.02
        )
        cert = certify(engine2, hot, theta_max=1.0, claimed_feasible=True)
        assert not cert.accepted
        assert cert.margin < 0
        assert any("claimed feasible" in r for r in cert.reasons)

    def test_inflated_throughput_claim_rejected(self, engine2, ao_result):
        cert = certify(
            engine2,
            ao_result.schedule,
            claimed_throughput=engine2.ladder.v_max + 1.0,
        )
        assert not cert.accepted
        assert any("throughput" in r for r in cert.reasons)

    def test_reference_oracle_route(self, engine2):
        sched = constant_schedule(
            np.full(2, engine2.ladder.v_min), period=0.02
        )
        cert = certify(engine2, sched, reference=True, reference_samples=32)
        assert "reference" in cert.method_peaks
        assert cert.accepted

    def test_dict_round_trip_is_json_safe(self, ao_result):
        cert = ao_result.certificate
        doc = json.loads(json.dumps(cert.as_dict()))
        assert SafetyCertificate.from_dict(doc) == cert

    def test_counters_increment(self, engine2, ao_result):
        before = METRICS.counter("safety.certificates").value
        rejected_before = METRICS.counter("safety.certificates_rejected").value
        certify(engine2, ao_result.schedule)
        certify(engine2, ao_result.schedule, claimed_peak=0.0)
        assert METRICS.counter("safety.certificates").value == before + 2
        assert (
            METRICS.counter("safety.certificates_rejected").value
            == rejected_before + 1
        )


class TestGuardedSolve:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_injected_crash_degrades_for_every_solver(self, name, engine2):
        """The acceptance criterion: any solver crash lands on a feasible
        certified fallback, with the hop visible in spans and details."""

        def raiser(*_args, **_kwargs):
            raise SolverError(f"injected crash in {name}")

        spec = dataclasses.replace(get_solver(name), func=raiser)
        before = METRICS.counter("safety.fallback").value
        with capture_spans(isolate=True) as spans:
            result = guarded_solve(spec, engine2)
        assert result.name == spec.name  # grid assembly keys rows by name
        assert result.feasible
        cert = result.certificate
        assert cert is not None and cert.accepted and cert.independent
        fallback = result.details["fallback"]
        assert fallback["requested"] == spec.name
        assert fallback["hop"] in FALLBACK_CHAIN
        assert "injected crash" in fallback["failure"]
        assert METRICS.counter("safety.fallback").value > before
        assert any(s.name == "safety/fallback" for s in spans)

    def test_linalg_error_degrades(self, engine2):
        def raiser(*_args, **_kwargs):
            raise np.linalg.LinAlgError("synthetic eigensolver breakdown")

        spec = dataclasses.replace(get_solver("AO"), func=raiser)
        result = guarded_solve(spec, engine2)
        assert result.feasible and result.certificate.accepted

    def test_rejected_certificate_triggers_fallback(self, engine2):
        """A solver that lies about its peak is caught and replaced."""
        honest = get_solver("AO")

        def liar(engine, **params):
            r = honest.func(engine, **params)
            return dataclasses.replace(r, peak_theta=r.peak_theta - 5.0)

        spec = dataclasses.replace(honest, func=liar)
        result = guarded_solve(spec, engine2, m_cap=16)
        assert result.details["fallback"]["failure"].startswith(
            "certificate rejected"
        )
        assert result.certificate.accepted and result.feasible

    def test_infeasible_error_propagates(self, engine2):
        def declarer(*_args, **_kwargs):
            raise InfeasibleError("no feasible assignment at this threshold")

        spec = dataclasses.replace(get_solver("EXS"), func=declarer)
        with pytest.raises(InfeasibleError):
            guarded_solve(spec, engine2)

    def test_happy_path_untouched(self, engine2):
        guarded = guarded_solve("AO", engine2, m_cap=16)
        direct = get_solver("AO").solve(engine2, m_cap=16)
        assert guarded.throughput == direct.throughput
        assert "fallback" not in guarded.details

    def test_every_hop_produces_a_result(self, engine2):
        for hop in FALLBACK_CHAIN:
            result = run_fallback_hop(hop, engine2)
            assert result.schedule.n_cores == 2
            assert np.isfinite(result.peak_theta)


class TestOneFeasibilityRule:
    """A solver's ``feasible`` claim is the package's own verdict.

    The ``minpeak`` solver once claimed feasibility up to ``theta_max +
    1e-6`` while ``api.evaluate`` and the certificate's ``feasible`` used
    ``theta_max + 1e-9``; a peak between the two got both answers.
    """

    def test_claims_agree_just_above_the_threshold(self, platform3):
        from repro.algorithms.continuous import continuous_assignment
        from repro.algorithms.minpeak import minimize_peak
        from repro.api import evaluate

        targets = continuous_assignment(platform3).voltages
        peak = minimize_peak(platform3, targets).peak.value
        # theta_max 5e-7 K below the minimized peak: inside 1e-6, outside 1e-9.
        tight = platform3.with_t_max(platform3.model.t_ambient_c + peak - 5e-7)
        assert 1e-9 < peak - tight.theta_max < 1e-6

        raw = get_solver("minpeak").solve(tight, target_speeds=targets)
        verdict = evaluate(tight, raw.schedule).feasible
        assert verdict is False
        assert raw.feasible == verdict
        assert raw.certificate.feasible == verdict
        guarded = guarded_solve("minpeak", tight, target_speeds=targets)
        assert guarded.feasible == verdict


class TestGuardedSolveParams:
    def test_misspelled_param_raises_instead_of_degrading(self, engine2):
        """A parameter the solver does not accept is a caller error: it
        must not come back as a fallback schedule under the solver's
        name."""
        with pytest.raises(SolverError, match="does not accept"):
            guarded_solve("AO", engine2, bogus=1)


class TestMarginPolicy:
    """The ``"shrink"`` margin policy of :func:`guarded_solve`.

    On well-conditioned platforms it is a no-op with a recorded reason;
    past :data:`MARGIN_POLICY_CONDITION` with a nonzero certificate
    disagreement it re-solves against a tightened ``T_max`` and
    re-certifies the result against the original threshold.
    """

    def _near_liar(self, offset=0.02):
        """AO with its peak claim shifted by less than the tolerance —
        accepted certificate, nonzero route disagreement."""
        honest = get_solver("AO")

        def solver(engine, **params):
            r = honest.func(engine, **params)
            return dataclasses.replace(r, peak_theta=r.peak_theta - offset)

        return dataclasses.replace(honest, func=solver)

    def test_unknown_policy_rejected(self, engine2):
        with pytest.raises(ConfigurationError):
            guarded_solve("AO", engine2, margin_policy="bogus", m_cap=16)

    def test_off_and_none_leave_no_record(self, engine2):
        for policy in (None, "off"):
            result = guarded_solve(
                "AO", engine2, margin_policy=policy, m_cap=16
            )
            assert "margin_policy" not in result.details

    def test_well_conditioned_platform_skipped(self, engine2):
        result = guarded_solve(
            "AO", engine2, margin_policy="shrink", m_cap=16
        )
        record = result.details["margin_policy"]
        assert record["applied"] is False
        assert record["reason"] == "well conditioned"
        assert record["condition_number"] < record["condition_threshold"]

    def test_agreeing_routes_skipped(self, ill_engine):
        result = guarded_solve(
            "AO", ill_engine, margin_policy="shrink", m_cap=16
        )
        record = result.details["margin_policy"]
        assert record["condition_number"] >= record["condition_threshold"]
        assert record["applied"] is False
        assert record["reason"] == "reference routes agree"
        assert record["disagreement"] <= ROUTE_AGREEMENT

    @pytest.mark.parametrize("solver", ["LNS", "EXS"])
    def test_round_off_spread_is_agreement(self, ill_engine, solver):
        """A steady-state claim and the periodic kernel's peak may differ
        by round-off (3.6e-15 K here when the certificate ran the scalar
        kernel): not a disagreement worth a re-solve."""
        result = guarded_solve(solver, ill_engine, margin_policy="shrink")
        record = result.details["margin_policy"]
        assert record["applied"] is False
        assert record["reason"] == "reference routes agree"
        assert record["disagreement"] <= ROUTE_AGREEMENT

    def test_applied_on_ill_conditioned_disagreement(self, ill_engine):
        """The acceptance criterion: high condition number + route
        disagreement tightens T_max by the disagreement, and the
        re-certified result keeps the original threshold."""
        before = METRICS.counter("safety.margin_policy").value
        with capture_spans(isolate=True) as spans:
            result = guarded_solve(
                self._near_liar(), ill_engine,
                margin_policy="shrink", m_cap=16,
            )
        record = result.details["margin_policy"]
        assert record["applied"] is True
        assert record["shrink_theta"] == record["disagreement"] > 0.0
        assert (
            record["tightened_t_max_c"]
            == ill_engine.platform.t_max_c - record["disagreement"]
        )
        # Re-certified against the *original* engine, not the shrunk one.
        assert result.certificate.theta_max == ill_engine.theta_max
        assert result.certificate.accepted and result.feasible
        assert result.peak_theta <= ill_engine.theta_max + 1e-9
        assert METRICS.counter("safety.margin_policy").value == before + 1
        assert any(s.name == "safety/margin_policy" for s in spans)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(sensor_noise_sigma=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(sensor_dropout_prob=1.5)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown fault fields"):
            FaultSpec.from_dict({"sensor_noise_sgima": 0.1})

    def test_perturb_reading_deterministic(self):
        spec = FaultSpec(sensor_noise_sigma=0.5, sensor_dropout_prob=0.5, seed=42)
        reading = np.array([10.0, 20.0, 30.0])
        previous = np.zeros(3)
        a = spec.perturb_reading(reading, previous, spec.rng())
        b = spec.perturb_reading(reading, previous, spec.rng())
        assert np.array_equal(a, b)
        assert not np.array_equal(a, reading)

    def test_drift_clamped(self):
        spec = FaultSpec(ambient_drift_k=3.0)
        assert spec.drift_at(-1.0) == 0.0
        assert spec.drift_at(0.5) == pytest.approx(1.5)
        assert spec.drift_at(7.0) == pytest.approx(3.0)

    def test_stuck_schedule_out_of_range(self, engine2):
        sched = constant_schedule(np.full(2, engine2.ladder.v_min), period=0.02)
        bad = FaultSpec(stuck_core=5)
        with pytest.raises(ConfigurationError, match="out of range"):
            stuck_schedule(sched, engine2.ladder, bad)

    def test_perturbed_peak_composes_faults(self, engine2, ao_result):
        clean = perturbed_peak(engine2, ao_result.schedule, FaultSpec())
        drifted = perturbed_peak(
            engine2, ao_result.schedule, FaultSpec(ambient_drift_k=2.0)
        )
        stuck = perturbed_peak(
            engine2,
            ao_result.schedule,
            FaultSpec(stuck_core=0, stuck_level=-1),
        )
        assert drifted == pytest.approx(clean + 2.0)
        assert stuck >= clean - 1e-9  # pinning at the top mode never cools


class TestCosimulateFaults:
    def _setup(self, engine2):
        from repro.realtime import RTTask

        sched = constant_schedule(
            np.full(2, engine2.ladder.v_min), period=0.02
        )
        tasks = [[RTTask(name="t0", wcec=0.004, period_s=0.02)], []]
        return sched, tasks

    def test_faulted_peak_reported(self, engine2):
        from repro.sim import cosimulate

        sched, tasks = self._setup(engine2)
        report = cosimulate(
            engine2.model,
            sched,
            tasks,
            faults={"ambient_drift_k": 2.0},
        )
        assert report.faulted_peak_theta == pytest.approx(
            report.nominal_peak_theta + 2.0
        )
        assert "faulted peak" in report.summary()

    def test_no_faults_means_none(self, engine2):
        from repro.sim import cosimulate

        sched, tasks = self._setup(engine2)
        report = cosimulate(engine2.model, sched, tasks)
        assert report.faulted_peak_theta is None
        assert report.faults is None

    def test_stuck_core_needs_ladder(self, engine2):
        from repro.sim import cosimulate

        sched, tasks = self._setup(engine2)
        with pytest.raises(ConfigurationError, match="ladder"):
            cosimulate(
                engine2.model, sched, tasks, faults={"stuck_core": 0}
            )
        report = cosimulate(
            engine2.model,
            sched,
            tasks,
            faults={"stuck_core": 0, "stuck_level": -1},
            ladder=engine2.ladder,
        )
        assert report.faulted_peak_theta > report.nominal_peak_theta


class TestSafetyLayering:
    """certificate.py and faults.py sit below the solver layer.

    The registry and the reactive solver import them, so a
    ``repro.algorithms`` import there would be a cycle waiting to
    happen.  ``fallback.py`` is the one deliberate exception: its hops
    wrap concrete solvers.  Mirrors the ruff TID ban in pyproject.toml.
    """

    def test_lower_safety_modules_never_import_algorithms(self):
        import ast
        from pathlib import Path

        safety_dir = (
            Path(__file__).resolve().parents[1] / "src" / "repro" / "safety"
        )
        offenders = []
        for path in (safety_dir / "certificate.py", safety_dir / "faults.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                modules = (
                    [a.name for a in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module]
                    if isinstance(node, ast.ImportFrom) and node.module
                    else []
                )
                offenders += [
                    f"{path.name}: {m}"
                    for m in modules
                    if m.startswith("repro.algorithms")
                ]
        assert not offenders, offenders


class TestCertifyCli:
    def test_exit_zero_on_agreement(self, capsys):
        from repro.cli import main

        code = main(
            ["certify", "AO", "--quick", "-o", "core_counts=2",
             "-o", "t_max_values=65"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate ACCEPTED" in out

    def test_exit_four_on_disagreement(self, capsys):
        from repro.cli import main

        # A negative tolerance makes every route spread a violation —
        # the cheapest way to drive the rejection path end-to-end.
        code = main(
            ["certify", "LNS", "--quick", "-o", "core_counts=2",
             "-o", "t_max_values=65", "--tolerance=-1.0"]
        )
        assert code == 4
        assert "REJECTED" in capsys.readouterr().out

    def test_unknown_solver_exits_two(self, capsys):
        from repro.cli import main

        assert main(["certify", "nosuch"]) == 2
