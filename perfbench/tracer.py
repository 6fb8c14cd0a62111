"""Layer attribution from outside the program: wrap public entry points.

The traced run installs :class:`Tracer` in the process doing the work.
It replaces each layer's public functions and methods with a wrapper
that records one span per call: the wrapper keeps a stack of open
spans, so a layer's **self time** is its span minus the child spans
nested inside it, and the self times of all layers plus the time outside
any span add up to the traced window.  Counts (calls, rows priced) are
taken at the same boundaries.

Nothing in the program changes: functions are replaced in every loaded
``repro`` module that bound them by name, and methods on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable

_perf = time.perf_counter
_INHERITED = object()


class Tracer:
    """Self-time and count aggregation over wrapped call boundaries."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn: Callable, rows: bool = False,
             on_result: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``name`` is a layer name or a callable deriving it from the
        positional arguments; ``rows`` counts ``len(result)``;
        ``on_result`` sees every result (origin counters).
        """
        stack, calls, self_s, row_counts = (
            self._stack, self.calls, self.self_s, self.rows
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[label] += 1
                self_s[label] += elapsed - frame[0]
            if rows:
                row_counts[label] += len(result)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name, **kw) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's binding of it."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr: str, name, **kw) -> None:
        """Wrap one plain method of ``cls`` (defined on it or inherited)."""
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting ------------------------------------------------------

    def report(self, wall_s: float) -> dict:
        """Aggregate document: per-layer calls/self/rows plus coverage."""
        covered = sum(self.self_s.values())
        return {
            "wall_s": wall_s,
            "covered_s": covered,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "rows": dict(self.rows),
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Imports the program first so every module that binds a wrapped
    function by name is loaded and gets patched.
    """
    import repro.algorithms.continuous  # noqa: F401
    import repro.algorithms.oscillation  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.safety.certificate  # noqa: F401
    import repro.safety.fallback  # noqa: F401
    import repro.schedule.serialization  # noqa: F401
    import repro.service  # noqa: F401
    import repro.thermal.batch  # noqa: F401
    import repro.thermal.grid  # noqa: F401
    import repro.thermal.peak  # noqa: F401
    import repro.thermal.periodic  # noqa: F401
    import repro.util.eigcache  # noqa: F401
    from repro.algorithms.registry import SolverSpec
    from repro.platforms import PlatformSpec
    from repro.runner.journal import Journal
    from repro.service.cache import ScheduleCache
    from repro.service.session import SchedulerSession
    from repro.thermal.model import ThermalModel

    fn = tracer.patch_function
    method = tracer.patch_method

    # platforms
    method(PlatformSpec, "build", "platforms.build")

    # thermal eigenbasis, counted by origin (memory / disk / miss)
    def eigen_origin(result) -> None:
        tracer.counts[f"thermal.eigen.{result[1]}"] += 1

    fn("repro.util.eigcache", "shared_eigen", "thermal.eigen",
       on_result=eigen_origin)

    # kernels, split by path
    for attr in ("peak_temperature", "stepup_peak_temperature"):
        fn("repro.thermal.peak", attr, "kernel.scalar")
    fn("repro.thermal.periodic", "periodic_steady_state", "kernel.scalar")
    for attr in ("steady_state", "steady_state_batch", "steady_state_many"):
        method(ThermalModel, attr, "kernel.steady")
    for attr in (
        "peak_temperature_batch", "stepup_peak_temperature_batch",
        "periodic_steady_state_batch",
    ):
        fn("repro.thermal.batch", attr, "kernel.batch", rows=True)
    for attr in (
        "peak_temperature_grid", "stepup_peak_temperature_grid",
        "periodic_steady_state_grid",
    ):
        fn("repro.thermal.grid", attr, "kernel.grid", rows=True)

    # algorithms
    method(SolverSpec, "solve", lambda args: f"solver.{args[0].name}")
    fn("repro.algorithms.continuous", "continuous_assignment", "solver.ideal")
    fn("repro.algorithms.oscillation", "choose_m_grid", "solver.choose_m_grid")

    # safety
    fn("repro.algorithms.registry", "guarded_solve", "safety.guard")
    for attr in ("certify", "certify_grid", "claim_certificate"):
        fn("repro.safety.certificate", attr, "safety.certify")
    fn("repro.safety.fallback", "run_fallback_hop", "safety.fallback")

    # service
    for attr in ("solve", "evaluate_many", "certify_many"):
        method(SchedulerSession, attr, "service.session")
    method(SchedulerSession, "engine_for", "service.engine")
    fn("repro.service.cache", "schedule_cache_key", "service.key")
    fn("repro.service.cache", "platform_hash", "service.key")
    method(ScheduleCache, "get", "service.cache.get")
    method(ScheduleCache, "put", "service.cache.put")

    # serialization
    for attr in ("result_to_dict", "schedule_to_dict"):
        fn("repro.schedule.serialization", attr, "serial.encode")
    for attr in ("result_from_dict", "schedule_from_dict"):
        fn("repro.schedule.serialization", attr, "serial.decode")

    # runner
    fn("repro.runner.runner", "run", "runner.run")
    fn("repro.runner.units", "execute_unit", "runner.unit")
    fn("repro.runner.units", "solve_cell_outcome", "runner.unit")
    fn("repro.experiments.comparison", "grid_batch_executor",
       "runner.grid_dispatch")
    method(Journal, "append", "runner.journal")


def install_server(tracer: Tracer) -> None:
    """Extra boundaries of the serving process: event loop, wire codec."""
    import asyncio.base_events
    import json
    import selectors
    import types

    import repro.service.server as server_mod
    from repro.service.coalescer import RequestCoalescer

    tracer.patch_method(asyncio.base_events.BaseEventLoop, "_run_once", "serve.loop")
    selector_cls = selectors.DefaultSelector
    tracer.patch_method(selector_cls, "select", "serve.wait")
    tracer.patch_method(RequestCoalescer, "_execute", "service.coalesce")
    codec = types.SimpleNamespace(
        loads=tracer.wrap("serial.decode", json.loads),
        dumps=tracer.wrap("serial.encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    )
    tracer._set(server_mod, "json", codec)
