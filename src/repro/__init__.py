"""repro — reproduction of "Performance Maximization via Frequency
Oscillation on Temperature Constrained Multi-core Processors" (ICPP 2016).

The package implements the paper's complete stack:

* :mod:`repro.floorplan` — core-grid floorplans (the paper's 2/3/6/9-core
  chips),
* :mod:`repro.power` — the eq.-(1) power model, discrete DVFS ladders and
  transition overhead,
* :mod:`repro.thermal` — the eq.-(2) RC thermal model, closed-form
  transient/periodic solvers, peak identification (Theorem-1 fast path and
  the MatEx-style general search), calibration, and an independent ODE
  oracle,
* :mod:`repro.schedule` — periodic multi-core schedules with the step-up
  and m-oscillating transforms,
* :mod:`repro.engine` — the instrumented :class:`ThermalEngine` facade
  every solver drives (shared caches, batch kernels, counters),
* :mod:`repro.algorithms` — LNS, EXS (Algorithm 1), AO (Algorithm 2),
  PCO and the rest of the solver registry
  (:mod:`repro.algorithms.registry`),
* :mod:`repro.analysis` — executable checks of Theorems 1-5,
* :mod:`repro.experiments` — one callable per table/figure of the paper,
* :mod:`repro.obs` — zero-dependency observability (tracing spans,
  metrics, the machinery behind ``repro run --trace`` / ``repro stats``),
* :mod:`repro.safety` — independent safety certificates
  (:func:`certify`), solver fallback chains (:func:`guarded_solve` lives
  in the registry), and injectable fault models (:class:`FaultSpec`),
* :mod:`repro.service` — the scheduling service core behind ``repro
  serve``: :class:`SchedulerSession` (shared engines + the
  content-addressed :class:`ScheduleCache`), request coalescing, and the
  newline-delimited-JSON server,
* :mod:`repro.platforms` — the declarative :class:`PlatformSpec`
  registry every platform construction resolves through (named presets
  plus the generated ``tech-<node>-<style>`` families),
* :mod:`repro.scaling` — the technology-scaling model behind the
  ``tech`` platform family and the dark-silicon ``scaling`` experiment.

Quickstart::

    from repro import evaluate, load_platform, solve

    platform = load_platform("paper", t_max_c=65.0)   # or "tech-16-io"
    result = solve("AO", platform)
    print(result.summary())
    print(evaluate(platform, result.schedule).summary())

**Frozen surface.** ``repro.__all__`` below is the supported public API:
everything in it keeps its name and call signature within a major
version (``tests/test_public_api.py`` snapshots both).  Symbols imported
from submodules directly are internal and may move without notice.
"""

from repro.platform import Platform, paper_platform, platform_3d
from repro.platforms import PlatformSpec, platform_names
from repro.api import EvaluationResult, evaluate, load_platform
from repro.engine import EngineStats, ThermalEngine, engine_entrypoint
from repro.obs import METRICS, capture_spans, span
from repro.algorithms import (
    SOLVERS,
    SchedulerResult,
    SolverSpec,
    dark_silicon_ao,
    ao,
    continuous_assignment,
    integral_controller,
    exs,
    exs_pruned,
    get_solver,
    lns,
    pco,
    solve,
)
from repro.algorithms.registry import guarded_solve
from repro.safety import FaultSpec, SafetyCertificate, certify
from repro.power import PowerModel, TransitionOverhead, VoltageLadder, paper_ladder
from repro.schedule import PeriodicSchedule, m_oscillate, step_up, throughput
from repro.thermal import ThermalModel, peak_temperature, stepup_peak_temperature
from repro.floorplan import Floorplan, grid_floorplan, paper_floorplan
from repro.algorithms.minpeak import minimize_peak
from repro.workload import schedule_taskset
from repro.realtime import RTTask, TaskSet, plan_frames, simulate_recovery
from repro.sim import cosimulate
from repro.experiments import run_experiment
from repro.errors import ReproError
from repro.service import ScheduleCache, SchedulerSession, default_session

__version__ = "1.0.0"

__all__ = [
    "Platform",
    "paper_platform",
    "platform_3d",
    "PlatformSpec",
    "platform_names",
    "load_platform",
    "evaluate",
    "EvaluationResult",
    "ThermalEngine",
    "EngineStats",
    "engine_entrypoint",
    "span",
    "capture_spans",
    "METRICS",
    "SchedulerResult",
    "SolverSpec",
    "SOLVERS",
    "get_solver",
    "solve",
    "guarded_solve",
    "SafetyCertificate",
    "certify",
    "FaultSpec",
    "ao",
    "pco",
    "exs",
    "exs_pruned",
    "lns",
    "continuous_assignment",
    "integral_controller",
    "dark_silicon_ao",
    "PowerModel",
    "TransitionOverhead",
    "VoltageLadder",
    "paper_ladder",
    "PeriodicSchedule",
    "m_oscillate",
    "step_up",
    "throughput",
    "ThermalModel",
    "peak_temperature",
    "stepup_peak_temperature",
    "Floorplan",
    "grid_floorplan",
    "paper_floorplan",
    "minimize_peak",
    "TaskSet",
    "schedule_taskset",
    "RTTask",
    "plan_frames",
    "simulate_recovery",
    "cosimulate",
    "run_experiment",
    "ReproError",
    "SchedulerSession",
    "ScheduleCache",
    "default_session",
    "__version__",
]
