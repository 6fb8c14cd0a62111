"""Shared fixtures: platforms, models, and schedule generators."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.floorplan.library import floorplan_2x1, floorplan_3x1, floorplan_3x2
from repro.platform import paper_platform
from repro.power.model import PowerModel
from repro.thermal.model import ThermalModel
from repro.thermal.rc import build_rc_network, build_single_layer_network

RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.fixture(scope="session")
def power_model() -> PowerModel:
    """The calibrated 65 nm power model."""
    return PowerModel()


@pytest.fixture(scope="session")
def model3(power_model) -> ThermalModel:
    """Calibrated single-layer model of the paper's 1x3 chip."""
    return ThermalModel(build_single_layer_network(floorplan_3x1()), power_model)


@pytest.fixture(scope="session")
def model2(power_model) -> ThermalModel:
    """Calibrated single-layer model of the paper's 1x2 chip."""
    return ThermalModel(build_single_layer_network(floorplan_2x1()), power_model)


@pytest.fixture(scope="session")
def model6_stacked(power_model) -> ThermalModel:
    """Three-layer (stacked) model of the 6-core chip."""
    return ThermalModel(build_rc_network(floorplan_3x2()), power_model)


@pytest.fixture(scope="session")
def platform3():
    """3-core, 2-level platform at the motivation example's threshold."""
    return paper_platform(3, n_levels=2, t_max_c=65.0)


@pytest.fixture(scope="session")
def platform3_no_overhead():
    """Same platform with tau = 0 (the section III setting)."""
    return paper_platform(3, n_levels=2, t_max_c=65.0, tau=0.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for workload generation."""
    return np.random.default_rng(20160816)


@pytest.fixture(scope="session")
def committed_result():
    """Regenerate a committed experiment and check it against ``results/``.

    Returns a function ``check(name)`` that runs experiment ``name`` at
    its defaults, asserts that its ``headline()`` and ``format()``
    reproduce ``results/<name>.json`` and ``results/<name>.txt`` byte
    for byte (the JSON as ``scripts/regenerate_results.sh`` writes it),
    and returns the committed document.
    """
    from repro.experiments.registry import run_experiment

    def check(name: str) -> dict:
        result = run_experiment(name)
        raw = (RESULTS / f"{name}.json").read_text(encoding="utf-8")
        assert json.dumps(result.headline(), indent=1, sort_keys=True) + "\n" == raw
        text = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
        assert result.format() + "\n" == text
        return json.loads(raw)

    return check


@pytest.fixture(autouse=True)
def strict_numerics():
    """Escalate silent floating-point events when CI asks for it.

    The ``strict-numerics`` CI job exports ``REPRO_STRICT_NUMERICS=1``
    (alongside ``-W error::RuntimeWarning``), turning overflow, invalid
    operations, and division-by-zero anywhere in the suite into hard
    errors instead of silently propagating NaN/inf.  Underflow stays at
    its default — gradual underflow of ``exp(lam * t)`` for large ``t``
    is expected, correct behaviour in the thermal propagators.
    """
    if os.environ.get("REPRO_STRICT_NUMERICS") != "1":
        yield
        return
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield
