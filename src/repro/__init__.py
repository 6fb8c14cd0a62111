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

**Lazy imports.** ``import repro`` loads no submodule: each public name
is imported from its module on first access (PEP 562 ``__getattr__``),
so ``import repro.service.session`` or ``repro solve`` loads only the
modules that path runs, not the experiments, the real-time stack or the
ODE oracle.
"""

import importlib

#: Where each public name lives, imported on first access (PEP 562).
_EXPORTS = {
    "Platform": "repro.platform",
    "paper_platform": "repro.platform",
    "platform_3d": "repro.platform",
    "PlatformSpec": "repro.platforms",
    "platform_names": "repro.platforms",
    "load_platform": "repro.api",
    "evaluate": "repro.api",
    "EvaluationResult": "repro.api",
    "ThermalEngine": "repro.engine",
    "EngineStats": "repro.engine",
    "engine_entrypoint": "repro.engine",
    "span": "repro.obs",
    "capture_spans": "repro.obs",
    "METRICS": "repro.obs",
    "SchedulerResult": "repro.algorithms",
    "SolverSpec": "repro.algorithms",
    "SOLVERS": "repro.algorithms",
    "get_solver": "repro.algorithms",
    "solve": "repro.algorithms",
    "guarded_solve": "repro.algorithms.registry",
    "SafetyCertificate": "repro.safety",
    "certify": "repro.safety",
    "FaultSpec": "repro.safety",
    "ao": "repro.algorithms",
    "pco": "repro.algorithms",
    "exs": "repro.algorithms",
    "exs_pruned": "repro.algorithms",
    "lns": "repro.algorithms",
    "continuous_assignment": "repro.algorithms",
    "integral_controller": "repro.algorithms",
    "dark_silicon_ao": "repro.algorithms",
    "PowerModel": "repro.power",
    "TransitionOverhead": "repro.power",
    "VoltageLadder": "repro.power",
    "paper_ladder": "repro.power",
    "PeriodicSchedule": "repro.schedule",
    "m_oscillate": "repro.schedule",
    "step_up": "repro.schedule",
    "throughput": "repro.schedule",
    "ThermalModel": "repro.thermal",
    "peak_temperature": "repro.thermal",
    "stepup_peak_temperature": "repro.thermal",
    "Floorplan": "repro.floorplan",
    "grid_floorplan": "repro.floorplan",
    "paper_floorplan": "repro.floorplan",
    "minimize_peak": "repro.algorithms.minpeak",
    "TaskSet": "repro.realtime",
    "schedule_taskset": "repro.workload",
    "RTTask": "repro.realtime",
    "plan_frames": "repro.realtime",
    "simulate_recovery": "repro.realtime",
    "cosimulate": "repro.sim",
    "run_experiment": "repro.experiments",
    "ReproError": "repro.errors",
    "SchedulerSession": "repro.service",
    "ScheduleCache": "repro.service",
    "default_session": "repro.service",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """A PEP 562 module ``__getattr__``: ``exports`` maps each name to the
    module it is imported from on first access; the value is then bound
    in ``namespace``, so later lookups are plain attribute reads."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_exports(globals(), _EXPORTS)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
